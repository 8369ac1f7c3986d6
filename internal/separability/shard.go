package separability

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"

	"repro/internal/artifact"
	"repro/internal/model"
)

// Shard artifacts are sealed records under the rules of package artifact:
// canonical JSON carrying a content ID, written through one atomic rename.
// Readers are total: arbitrary bytes yield an error, never a panic, and any
// edit to a sealed file (truncation, tampering, a result file passed off as
// a checkpoint) breaks the ID or the kind and is rejected.

const (
	// ShardSchemaVersion versions the shard-result/checkpoint schema.
	ShardSchemaVersion = 1
	// KindShardResult and KindShardCheckpoint discriminate the two
	// artifact flavours; each reader accepts only its own.
	KindShardResult     = "shard-result"
	KindShardCheckpoint = "shard-checkpoint"
)

// ShardParams pins everything a sweep's partition depends on. Two shard
// artifacts may only be merged — and a checkpoint only resumed — when
// their parameters describe the same sweep of the same space.
type ShardParams struct {
	Target        string   `json:"target,omitempty"`
	Shard         int      `json:"shard"`
	Shards        int      `json:"shards"`
	ChunkSize     int      `json:"chunkSize"`
	MaxViolations int      `json:"maxViolations"`
	States        int      `json:"states"`
	Inputs        int      `json:"inputs"`
	Colours       []string `json:"colours"`
}

// NChunks returns the chunk count of the partition the parameters describe.
func (p ShardParams) NChunks() int {
	if p.ChunkSize <= 0 {
		return 0
	}
	return (p.States + p.ChunkSize - 1) / p.ChunkSize
}

// ChunkRange is the partition rule: shard k of p.Shards covers chunk range
// [k*NChunks/Shards, (k+1)*NChunks/Shards). The ranges of shards 0..Shards-1
// tile the chunk space in order, for any shard count.
func (p ShardParams) ChunkRange(k int) (lo, hi int) {
	n := p.NChunks()
	return k * n / p.Shards, (k + 1) * n / p.Shards
}

// StatesIn counts the states covered by chunk range [lo, hi); chunks past
// the last state count nothing.
func (p ShardParams) StatesIn(lo, hi int) int {
	return max(0, min(hi*p.ChunkSize, p.States)-min(lo*p.ChunkSize, p.States))
}

// UnitsPerState is the progress weight of one state: its op pass plus one
// pass per enumerated input.
func (p ShardParams) UnitsPerState() int { return 1 + p.Inputs }

func (p ShardParams) validate() error {
	switch {
	case p.Shards < 1:
		return fmt.Errorf("shards %d < 1", p.Shards)
	case p.Shard < 0 || p.Shard >= p.Shards:
		return fmt.Errorf("shard %d outside [0,%d)", p.Shard, p.Shards)
	case p.ChunkSize < 1:
		return fmt.Errorf("chunk size %d < 1", p.ChunkSize)
	case p.MaxViolations < 1:
		return fmt.Errorf("max violations %d < 1", p.MaxViolations)
	case p.States < 0:
		return fmt.Errorf("negative state count %d", p.States)
	case p.Inputs < 0:
		return fmt.Errorf("negative input count %d", p.Inputs)
	case len(p.Colours) == 0:
		return fmt.Errorf("no colours")
	}
	return nil
}

// sameSweep reports whether q describes the same partitioned sweep as p,
// ignoring which shard each side is.
func (p ShardParams) sameSweep(q ShardParams) error {
	switch {
	case p.Target != q.Target:
		return fmt.Errorf("target %q, want %q", p.Target, q.Target)
	case p.Shards != q.Shards:
		return fmt.Errorf("shard count %d, want %d", p.Shards, q.Shards)
	case p.ChunkSize != q.ChunkSize:
		return fmt.Errorf("chunk size %d, want %d", p.ChunkSize, q.ChunkSize)
	case p.MaxViolations != q.MaxViolations:
		return fmt.Errorf("max violations %d, want %d", p.MaxViolations, q.MaxViolations)
	case p.States != q.States:
		return fmt.Errorf("state count %d, want %d", p.States, q.States)
	case p.Inputs != q.Inputs:
		return fmt.Errorf("input count %d, want %d", p.Inputs, q.Inputs)
	}
	if len(p.Colours) != len(q.Colours) {
		return fmt.Errorf("%d colours, want %d", len(p.Colours), len(q.Colours))
	}
	for i := range p.Colours {
		if p.Colours[i] != q.Colours[i] {
			return fmt.Errorf("colour[%d] %q, want %q", i, p.Colours[i], q.Colours[i])
		}
	}
	return nil
}

// ViolationRecord is the codec form of one Violation; digests are rendered
// as fixed-width hex so the JSON is stable and greppable.
type ViolationRecord struct {
	Condition int    `json:"condition"`
	Colour    string `json:"colour"`
	Op        string `json:"op"`
	Detail    string `json:"detail,omitempty"`
	Trial     int    `json:"trial,omitempty"`
	Step      int    `json:"step"`
	Want      string `json:"want"`
	Got       string `json:"got"`
}

// ResultRecord is the codec form of one per-colour Result. Checks is keyed
// by the integer Condition value and holds only the non-zero counts.
type ResultRecord struct {
	Violations []ViolationRecord `json:"violations,omitempty"`
	Checks     map[string]int    `json:"checks,omitempty"`
	OpChecks   map[string]int    `json:"opChecks,omitempty"`
	States     int               `json:"states,omitempty"`
}

// shardHeader is the schema prefix shard results and checkpoints share:
// version, kind and content ID, the sweep parameters, and the shard's chunk
// range. Embedded, its fields encode first in each artifact, in this order.
type shardHeader struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	ID      string `json:"id"`
	ShardParams
	StartChunk int `json:"startChunk"`
	EndChunk   int `json:"endChunk"`
}

func newShardHeader(kind string, params ShardParams, startChunk, endChunk int) shardHeader {
	return shardHeader{Version: ShardSchemaVersion, Kind: kind, ShardParams: params,
		StartChunk: startChunk, EndChunk: endChunk}
}

// validate checks the header of v, the artifact it heads: schema version
// and kind, the content ID, parameter sanity, and the chunk range against
// the partition function.
func (h *shardHeader) validate(v any, kind string) error {
	if h.Version != ShardSchemaVersion {
		return fmt.Errorf("unsupported %s version %d", kind, h.Version)
	}
	if h.Kind != kind {
		return fmt.Errorf("kind %q, want %q", h.Kind, kind)
	}
	if err := artifact.Verify(v, &h.ID); err != nil {
		return err
	}
	if err := h.ShardParams.validate(); err != nil {
		return err
	}
	if lo, hi := h.ChunkRange(h.Shard); h.StartChunk != lo || h.EndChunk != hi {
		return fmt.Errorf("chunk range [%d,%d) inconsistent with shard %d/%d over %d chunks",
			h.StartChunk, h.EndChunk, h.Shard, h.Shards, h.NChunks())
	}
	return nil
}

// write seals v, the artifact h heads, and writes it to path.
func (h *shardHeader) write(path string, v any) error {
	if err := artifact.Seal(v, &h.ID); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return artifact.WriteFile(path, b, []byte{'\n'})
}

// ShardResult is the sealed artifact of one completed shard sweep.
type ShardResult struct {
	shardHeader
	PerColour []*ResultRecord `json:"perColour"`
}

// ShardCheckpoint is the resumable progress artifact of one shard: every
// chunk in [StartChunk, Frontier) is folded into PerColour; Done marks a
// finished shard.
type ShardCheckpoint struct {
	shardHeader
	Frontier  int             `json:"frontier"`
	Done      bool            `json:"done,omitempty"`
	PerColour []*ResultRecord `json:"perColour"`
}

func newShardCheckpoint(params ShardParams, startChunk, endChunk, frontier int,
	done bool, acc []*Result) *ShardCheckpoint {
	return &ShardCheckpoint{
		shardHeader: newShardHeader(KindShardCheckpoint, params, startChunk, endChunk),
		Frontier:    frontier, Done: done, PerColour: resultRecords(acc),
	}
}

// Validate checks internal consistency: schema version and kind, the
// content ID, parameter sanity, the chunk range against the partition
// function, and that every record decodes.
func (sr *ShardResult) Validate() error {
	if err := sr.validate(sr, KindShardResult); err != nil {
		return err
	}
	return validateRecords(sr.PerColour, len(sr.Colours))
}

// Validate is ShardResult.Validate for checkpoints, additionally pinning
// the frontier inside the shard's chunk range.
func (ck *ShardCheckpoint) Validate() error {
	if err := ck.validate(ck, KindShardCheckpoint); err != nil {
		return err
	}
	if ck.Frontier < ck.StartChunk || ck.Frontier > ck.EndChunk {
		return fmt.Errorf("frontier %d outside chunk range [%d,%d]",
			ck.Frontier, ck.StartChunk, ck.EndChunk)
	}
	if ck.Done && ck.Frontier != ck.EndChunk {
		return fmt.Errorf("done checkpoint with frontier %d != end chunk %d",
			ck.Frontier, ck.EndChunk)
	}
	return validateRecords(ck.PerColour, len(ck.Colours))
}

func validateRecords(rrs []*ResultRecord, colours int) error {
	if len(rrs) != colours {
		return fmt.Errorf("%d per-colour records for %d colours", len(rrs), colours)
	}
	for ci, rr := range rrs {
		if rr == nil {
			return fmt.Errorf("perColour[%d] missing", ci)
		}
		if _, err := rr.result(); err != nil {
			return fmt.Errorf("perColour[%d]: %w", ci, err)
		}
	}
	return nil
}

// Result folds this shard's per-colour records into one Result; for a
// single-shard run this is the full verdict.
func (sr *ShardResult) Result() (*Result, error) {
	perColour := make([]*Result, len(sr.PerColour))
	for ci, rr := range sr.PerColour {
		r, err := rr.result()
		if err != nil {
			return nil, fmt.Errorf("separability: shard %d colour %d: %w", sr.Shard, ci, err)
		}
		perColour[ci] = r
	}
	return foldColours(perColour, sr.MaxViolations), nil
}

// WriteFile seals the result, so edits made after an earlier seal are
// covered, and writes it atomically.
func (sr *ShardResult) WriteFile(path string) error { return sr.write(path, sr) }

// DecodeShardResult decodes and validates one shard-result artifact. It is
// total over arbitrary bytes: errors, never panics.
func DecodeShardResult(b []byte) (*ShardResult, error) {
	sr := &ShardResult{}
	if err := json.Unmarshal(b, sr); err != nil {
		return nil, err
	}
	if err := sr.Validate(); err != nil {
		return nil, err
	}
	return sr, nil
}

// DecodeShardCheckpoint is DecodeShardResult for checkpoint artifacts.
func DecodeShardCheckpoint(b []byte) (*ShardCheckpoint, error) {
	ck := &ShardCheckpoint{}
	if err := json.Unmarshal(b, ck); err != nil {
		return nil, err
	}
	if err := ck.Validate(); err != nil {
		return nil, err
	}
	return ck, nil
}

// ReadShardResult reads and validates a shard-result file.
func ReadShardResult(path string) (*ShardResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sr, err := DecodeShardResult(b)
	if err != nil {
		return nil, fmt.Errorf("separability: %s: %w", path, err)
	}
	return sr, nil
}

// ReadShardCheckpoint reads and validates a checkpoint file. A missing
// file is a cold start, reported as (nil, nil); an unreadable or invalid
// one is an error.
func ReadShardCheckpoint(path string) (*ShardCheckpoint, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	ck, err := DecodeShardCheckpoint(b)
	if err != nil {
		return nil, fmt.Errorf("separability: %s: %w", path, err)
	}
	return ck, nil
}

// MergeShards folds a complete shard set (given in any order) into the
// combined Result, byte-identical to the unsharded run: per-colour records
// concatenate in shard order under the violation cap, then colours fold in
// colour order exactly as the in-process engine does.
func MergeShards(srs []*ShardResult) (*Result, error) {
	if len(srs) == 0 {
		return nil, fmt.Errorf("separability: no shard results to merge")
	}
	sorted := append([]*ShardResult(nil), srs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Shard < sorted[j].Shard })
	want := sorted[0].ShardParams
	if len(sorted) != want.Shards {
		return nil, fmt.Errorf("separability: have %d shard results, want %d", len(sorted), want.Shards)
	}
	nc := len(want.Colours)
	perColour := make([]*Result, nc)
	for ci := range perColour {
		perColour[ci] = &Result{}
	}
	for i, sr := range sorted {
		if sr.Shard != i {
			return nil, fmt.Errorf("separability: shard set has a duplicate or gap at shard %d", i)
		}
		if err := sr.ShardParams.sameSweep(want); err != nil {
			return nil, fmt.Errorf("separability: shard %d: %w", sr.Shard, err)
		}
		if len(sr.PerColour) != nc {
			return nil, fmt.Errorf("separability: shard %d: %d per-colour records for %d colours",
				sr.Shard, len(sr.PerColour), nc)
		}
		for ci := range perColour {
			cr, err := sr.PerColour[ci].result()
			if err != nil {
				return nil, fmt.Errorf("separability: shard %d colour %d: %w", sr.Shard, ci, err)
			}
			perColour[ci].Merge(cr)
			perColour[ci].Violations = truncatePerCondition(perColour[ci].Violations, want.MaxViolations)
		}
	}
	return foldColours(perColour, want.MaxViolations), nil
}

// MergeShardFiles reads and merges shard-result files.
func MergeShardFiles(paths []string) (*Result, error) {
	srs := make([]*ShardResult, 0, len(paths))
	for _, p := range paths {
		sr, err := ReadShardResult(p)
		if err != nil {
			return nil, err
		}
		srs = append(srs, sr)
	}
	return MergeShards(srs)
}

func resultRecords(rs []*Result) []*ResultRecord {
	out := make([]*ResultRecord, len(rs))
	for i, r := range rs {
		out[i] = resultRecord(r)
	}
	return out
}

// NewViolationRecord converts one Violation to its stable codec form, for
// artifact stores outside this package (the sepwatch build ledger records
// the violations behind each FAIL verdict this way).
func NewViolationRecord(v Violation) ViolationRecord {
	return ViolationRecord{
		Condition: int(v.Condition), Colour: string(v.Colour), Op: string(v.Op),
		Detail: v.Detail, Trial: v.Trial, Step: v.Step,
		Want: fmt.Sprintf("%016x", v.Want), Got: fmt.Sprintf("%016x", v.Got),
	}
}

func resultRecord(r *Result) *ResultRecord {
	rr := &ResultRecord{States: r.States}
	for _, v := range r.Violations {
		rr.Violations = append(rr.Violations, NewViolationRecord(v))
	}
	for c, n := range r.Checks {
		if n == 0 {
			continue
		}
		if rr.Checks == nil {
			rr.Checks = map[string]int{}
		}
		rr.Checks[strconv.Itoa(c)] = n
	}
	if len(r.OpChecks) > 0 {
		rr.OpChecks = make(map[string]int, len(r.OpChecks))
		for k, n := range r.OpChecks {
			rr.OpChecks[k] = n
		}
	}
	return rr
}

// result decodes the record back into a Result, rejecting malformed
// digests, unknown conditions and negative counts.
func (rr *ResultRecord) result() (*Result, error) {
	r := &Result{States: rr.States}
	for i, vr := range rr.Violations {
		if vr.Condition < int(ConditionMeta) || vr.Condition > int(ConditionSched) {
			return nil, fmt.Errorf("violation %d: unknown condition %d", i, vr.Condition)
		}
		want, err := parseDigest(vr.Want)
		if err != nil {
			return nil, fmt.Errorf("violation %d: want: %w", i, err)
		}
		got, err := parseDigest(vr.Got)
		if err != nil {
			return nil, fmt.Errorf("violation %d: got: %w", i, err)
		}
		r.Violations = append(r.Violations, Violation{
			Condition: Condition(vr.Condition), Colour: model.Colour(vr.Colour),
			Op: model.OpID(vr.Op), Detail: vr.Detail, Trial: vr.Trial, Step: vr.Step,
			Want: want, Got: got,
		})
	}
	for k, n := range rr.Checks {
		c, err := strconv.Atoi(k)
		if err != nil || c < int(ConditionMeta) || c > int(ConditionSched) {
			return nil, fmt.Errorf("bad condition key %q", k)
		}
		if n < 0 {
			return nil, fmt.Errorf("negative check count for condition %s", k)
		}
		r.Checks[Condition(c)] = n
	}
	for k, n := range rr.OpChecks {
		if n < 0 {
			return nil, fmt.Errorf("negative op check count for %q", k)
		}
		if r.OpChecks == nil {
			r.OpChecks = make(map[string]int, len(rr.OpChecks))
		}
		r.OpChecks[k] = n
	}
	return r, nil
}

func parseDigest(s string) (uint64, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("digest %q is not 16 hex digits", s)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("digest %q: %w", s, err)
	}
	return v, nil
}
