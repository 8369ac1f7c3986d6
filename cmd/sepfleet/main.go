// Command sepfleet coordinates a fleet of sepverify worker processes over
// one sharded exhaustive sweep.
//
//	sepfleet -target minisue:register-leak -shards 4
//
// The coordinator computes the deterministic chunk partition for the
// target, spawns one `sepverify -target T -shard k/n` process
// per shard (each writing a content-addressed shard-result file and a
// resumable checkpoint), watches the checkpoint files for progress, and
// restarts any worker that dies — the replacement resumes from the dead
// worker's checkpoint instead of starting over. When every shard has
// finished, the shard files are merged into the combined verdict, which is
// identical to a single unsharded run.
//
// Observability and fault injection:
//
//	sepfleet -listen :9090        # live /metrics: sep_fleet_{shards,done,restarts,units}_total
//	                              # plus per-shard sep_fleet_shard_frontier{shard="k"} and
//	                              # sep_fleet_shard_checkpoint_age_seconds{shard="k"} gauges
//	sepfleet -stall 30s           # SIGKILL+restart a worker whose frontier stalls
//	sepfleet -kill-once 0@2       # SIGKILL shard 0 once it has folded 2 chunks
//	sepfleet -throttle 5ms        # slow workers down (demo/test lever)
//
// Exit status is 0 when the merged verdict matches the target registry's
// expected verdict, 1 on an unexpected verdict, 2 on operational failure
// (a shard exhausting its restart budget, unusable artifacts, bad flags).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/separability"
	"repro/internal/verifysys"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	target := flag.String("target", "", "registered exhaustive target to sweep (required; see sepverify -list)")
	shards := flag.Int("shards", 2, "worker processes / shards to partition the sweep across")
	workers := flag.Int("workers", 0, "checker goroutines per worker process (0 = one per core)")
	dir := flag.String("dir", "", "directory for shard artifacts, checkpoints and worker logs (default: a fresh temp dir)")
	sepverifyFlag := flag.String("sepverify", "", "sepverify binary to spawn (default: next to this binary, then $PATH)")
	listen := flag.String("listen", "", "serve live fleet counters at http://ADDR/metrics (e.g. :9090)")
	poll := flag.Duration("poll", 200*time.Millisecond, "checkpoint poll interval")
	stall := flag.Duration("stall", 0, "kill and restart a worker whose checkpoint frontier stalls this long (0 = never)")
	maxRestarts := flag.Int("max-restarts", 3, "restarts allowed per shard before the fleet gives up")
	maxViolations := flag.Int("max-violations", 8, "counterexamples collected per condition")
	ckEvery := flag.Int("checkpoint-every", 0, "worker checkpoint cadence in folded chunks (0 = worker default)")
	throttle := flag.Duration("throttle", 0, "per-chunk delay passed to workers (demo/test lever)")
	killOnce := flag.String("kill-once", "",
		"K@F: SIGKILL shard K's worker once its checkpoint shows F folded chunks (fault-injection demo)")
	flag.Parse()

	if *target == "" {
		fmt.Fprintln(os.Stderr, "sepfleet: -target is required")
		return 2
	}
	t, err := verifysys.FindExhaustiveTarget(*target)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sepfleet:", err)
		return 2
	}
	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "sepfleet: -shards must be >= 1")
		return 2
	}
	killShard, killAfter, err := parseKillOnce(*killOnce)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sepfleet:", err)
		return 2
	}
	bin, err := findSepverify(*sepverifyFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sepfleet: cannot locate sepverify binary:", err)
		return 2
	}
	workDir := *dir
	if workDir == "" {
		workDir, err = os.MkdirTemp("", "sepfleet-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "sepfleet:", err)
			return 2
		}
	} else if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "sepfleet:", err)
		return 2
	}

	// The coordinator derives the same partition the workers will use, by
	// enumerating the target once: per-shard chunk ranges give resumed-aware
	// progress accounting and an ETA without any worker cooperation.
	sys := t.Build()
	part := separability.ShardParams{Shards: *shards, ChunkSize: separability.DefaultChunkSize}
	sys.EnumerateStates(func(model.StateRef) bool { part.States++; return true })
	sys.EnumerateInputs(func(model.Input) bool { part.Inputs++; return true })

	f := &fleet{
		target: *target, shards: *shards, dir: workDir, bin: bin,
		workers: *workers, ckEvery: *ckEvery,
		maxViolations: *maxViolations, maxRestarts: *maxRestarts,
		throttle: *throttle, poll: *poll, stall: *stall,
		killShard: killShard, killAfter: killAfter,
		part:      part,
		reg:       obs.NewRegistry(),
		frontiers: make([]int, *shards),
	}
	start := time.Now()
	f.lastAdvance = make([]time.Time, *shards)
	f.frontierG = make([]*obs.Gauge, *shards)
	f.ageG = make([]*obs.Gauge, *shards)
	for k := 0; k < *shards; k++ {
		lo, _ := part.ChunkRange(k)
		f.frontiers[k] = lo
		f.lastAdvance[k] = start
		f.frontierG[k] = f.reg.Gauge(fmt.Sprintf("sep_fleet_shard_frontier{shard=%q}", strconv.Itoa(k)))
		f.frontierG[k].Set(float64(lo))
		f.ageG[k] = f.reg.Gauge(fmt.Sprintf("sep_fleet_shard_checkpoint_age_seconds{shard=%q}", strconv.Itoa(k)))
	}
	f.reg.Counter("sep_fleet_shards_total").Add(uint64(*shards))
	f.restartsCnt = f.reg.Counter("sep_fleet_restarts_total")
	f.doneCnt = f.reg.Counter("sep_fleet_done_total")
	f.unitsCnt = f.reg.Counter("sep_fleet_units_total")

	if *listen != "" {
		bound, shutdown, err := obs.ListenMetrics(*listen, f.reg, obs.ListenOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sepfleet:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "sepfleet: serving metrics at http://%s/metrics\n", bound)
		defer shutdown()
	}

	fmt.Fprintf(os.Stderr, "sepfleet: target %s: %d states x %d inputs, %d chunks across %d shards (dir %s)\n",
		*target, part.States, part.Inputs, part.NChunks(), *shards, workDir)

	stopProgress := f.startProgress()
	var wg sync.WaitGroup
	errs := make([]error, *shards)
	for k := 0; k < *shards; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = f.runShard(k)
		}(k)
	}
	wg.Wait()
	stopProgress()

	bad := false
	for k, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "sepfleet: shard %d failed: %v\n", k, err)
			bad = true
		}
	}
	if bad {
		return 2
	}

	paths := make([]string, *shards)
	for k := range paths {
		paths[k] = f.shardOutPath(k)
	}
	res, err := separability.MergeShardFiles(paths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sepfleet: merge:", err)
		return 2
	}
	verdict := "as expected"
	good := res.Passed() == t.Secure
	if !good {
		verdict = "UNEXPECTED"
	}
	fmt.Printf("%-22s %-60s [%s]\n", *target+":", res.Summary(), verdict)
	fmt.Printf("    fleet: %d shards, %d restarts, artifacts in %s\n",
		*shards, f.restartsCnt.Value(), workDir)
	if good {
		return 0
	}
	return 1
}

// fleet carries the coordinator state shared between shard supervisors and
// the progress reporter.
type fleet struct {
	target        string
	shards        int
	dir           string
	bin           string
	workers       int
	ckEvery       int
	maxViolations int
	maxRestarts   int
	throttle      time.Duration
	poll          time.Duration
	stall         time.Duration

	// part is the chunk partition the workers sweep.
	part separability.ShardParams

	reg         *obs.Registry
	restartsCnt *obs.Counter
	doneCnt     *obs.Counter
	unitsCnt    *obs.Counter
	// Per-shard gauges: the absolute checkpoint frontier and how long ago
	// it last advanced. Fleet-wide totals hide a single stalled shard; the
	// age gauge makes it visible on /metrics before the stall detector
	// resorts to killing the worker.
	frontierG []*obs.Gauge
	ageG      []*obs.Gauge

	mu          sync.Mutex
	frontiers   []int // absolute checkpoint frontier per shard
	lastAdvance []time.Time
	killShard   int // -1 = no fault injection
	killAfter   int
	killDone    bool
}

func (f *fleet) shardOutPath(k int) string {
	return filepath.Join(f.dir, fmt.Sprintf("shard-%d.json", k))
}

func (f *fleet) checkpointPath(k int) string {
	return filepath.Join(f.dir, fmt.Sprintf("shard-%d.ck.json", k))
}

func (f *fleet) logPath(k int) string {
	return filepath.Join(f.dir, fmt.Sprintf("shard-%d.log", k))
}

// runShard supervises shard k to completion: spawn a worker, watch its
// checkpoint, and on any death restart it (the resume comes from the
// checkpoint file) until the shard-result artifact exists and validates or
// the restart budget is spent.
func (f *fleet) runShard(k int) error {
	for attempt := 0; ; attempt++ {
		logF, err := os.OpenFile(f.logPath(k), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		args := []string{"-target", f.target,
			"-shard", fmt.Sprintf("%d/%d", k, f.shards),
			"-shard-out", f.shardOutPath(k), "-checkpoint", f.checkpointPath(k),
			"-max-violations", strconv.Itoa(f.maxViolations)}
		if f.workers != 0 {
			args = append(args, "-workers", strconv.Itoa(f.workers))
		}
		if f.ckEvery != 0 {
			args = append(args, "-checkpoint-every", strconv.Itoa(f.ckEvery))
		}
		if f.throttle > 0 {
			args = append(args, "-throttle", f.throttle.String())
		}
		cmd := exec.Command(f.bin, args...)
		cmd.Stdout, cmd.Stderr = logF, logF
		if err := cmd.Start(); err != nil {
			logF.Close()
			return err
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()
		err = f.watch(k, cmd, exited)
		logF.Close()
		if err == nil {
			if _, rerr := separability.ReadShardResult(f.shardOutPath(k)); rerr == nil {
				f.doneCnt.Add(1)
				return nil
			} else {
				err = fmt.Errorf("worker exited 0 but shard result is unusable: %w", rerr)
			}
		}
		if attempt >= f.maxRestarts {
			return fmt.Errorf("%w (restart budget %d spent)", err, f.maxRestarts)
		}
		f.restartsCnt.Add(1)
		fmt.Fprintf(os.Stderr, "sepfleet: shard %d worker died (%v); restarting from checkpoint (attempt %d/%d)\n",
			k, err, attempt+1, f.maxRestarts)
	}
}

// watch polls shard k's checkpoint until the worker exits, firing the
// kill-once fault injection and the stall detector along the way.
func (f *fleet) watch(k int, cmd *exec.Cmd, exited <-chan error) error {
	t := time.NewTicker(f.poll)
	defer t.Stop()
	lastAdvance := time.Now()
	for {
		select {
		case err := <-exited:
			f.pollCheckpoint(k, nil)
			return err
		case <-t.C:
			if f.pollCheckpoint(k, cmd) {
				lastAdvance = time.Now()
			} else if f.stall > 0 && time.Since(lastAdvance) > f.stall {
				fmt.Fprintf(os.Stderr, "sepfleet: shard %d stalled >%s; killing worker\n", k, f.stall)
				cmd.Process.Kill()
				lastAdvance = time.Now() // one kill per stall window
			}
		}
	}
}

// pollCheckpoint reads shard k's checkpoint file (atomic writes mean a read
// never observes a torn artifact), advances the shared frontier, and fires
// the one-shot kill when the fault-injection threshold is crossed.
func (f *fleet) pollCheckpoint(k int, cmd *exec.Cmd) (advanced bool) {
	ck, err := separability.ReadShardCheckpoint(f.checkpointPath(k))
	if err != nil || ck == nil {
		return false
	}
	f.mu.Lock()
	if ck.Frontier > f.frontiers[k] {
		f.frontiers[k] = ck.Frontier
		f.lastAdvance[k] = time.Now()
		advanced = true
	}
	f.frontierG[k].Set(float64(f.frontiers[k]))
	f.ageG[k].Set(time.Since(f.lastAdvance[k]).Seconds())
	doKill := cmd != nil && k == f.killShard && !f.killDone &&
		ck.Frontier-ck.StartChunk >= f.killAfter
	if doKill {
		f.killDone = true
	}
	f.mu.Unlock()
	if doKill {
		fmt.Fprintf(os.Stderr, "sepfleet: kill-once firing: SIGKILL shard %d at frontier %d\n", k, ck.Frontier)
		cmd.Process.Kill()
	}
	return advanced
}

// startProgress reports fleet-wide progress on stderr once a second:
// completed units (resumed work included), throughput and ETA, from the
// checkpoint frontiers alone.
func (f *fleet) startProgress() (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	start := time.Now()
	unitsPerState := uint64(f.part.UnitsPerState())
	totalUnits := uint64(f.part.States) * unitsPerState
	lastUnits := uint64(0)
	line := func() {
		f.mu.Lock()
		units := uint64(0)
		for k, fr := range f.frontiers {
			lo, _ := f.part.ChunkRange(k)
			units += uint64(f.part.StatesIn(lo, fr)) * unitsPerState
			// Keep the age gauge moving even when the worker writes no
			// checkpoints at all — that is exactly the stall to surface.
			f.ageG[k].Set(time.Since(f.lastAdvance[k]).Seconds())
		}
		f.mu.Unlock()
		if units > lastUnits {
			f.unitsCnt.Add(units - lastUnits)
			lastUnits = units
		}
		elapsed := time.Since(start).Seconds()
		rate := float64(units) / elapsed
		extra := ""
		if rate > 0 && units < totalUnits {
			eta := time.Duration(float64(totalUnits-units) / rate * float64(time.Second))
			extra = fmt.Sprintf(", ~%s left", eta.Round(time.Second))
		}
		pct := 100.0
		if totalUnits > 0 {
			pct = 100 * float64(units) / float64(totalUnits)
		}
		fmt.Fprintf(os.Stderr, "sepfleet: %d/%d shards done, %d/%d units (%.1f%%), %.0f units/s%s, restarts=%d\n",
			f.doneCnt.Value(), f.shards, units, totalUnits, pct, rate, extra, f.restartsCnt.Value())
	}
	go func() {
		defer close(finished)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				line()
			case <-done:
				line()
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// parseKillOnce parses a "-kill-once K@F" spec into (shard, folded-chunk
// threshold); an empty spec disables fault injection (shard -1).
func parseKillOnce(s string) (shard, after int, err error) {
	if s == "" {
		return -1, 0, nil
	}
	ks, fs, ok := strings.Cut(s, "@")
	if !ok {
		return 0, 0, fmt.Errorf("bad -kill-once %q (want K@F, e.g. 0@2)", s)
	}
	k, errK := strconv.Atoi(ks)
	n, errN := strconv.Atoi(fs)
	if errK != nil || errN != nil || k < 0 || n < 0 {
		return 0, 0, fmt.Errorf("bad -kill-once %q (want K@F with K, F >= 0)", s)
	}
	return k, n, nil
}

// findSepverify resolves the worker binary: an explicit -sepverify path, the
// sibling of this executable (the `make fleet-smoke` layout), then $PATH.
func findSepverify(explicit string) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	if exe, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(exe), "sepverify")
		if st, err := os.Stat(cand); err == nil && !st.IsDir() {
			return cand, nil
		}
	}
	return exec.LookPath("sepverify")
}
