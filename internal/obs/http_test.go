package obs_test

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestListenMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("sep_trials_total").Add(7)
	reg.Counter(`sep_checks_total{condition="SC1"}`).Add(3)

	bound, shutdown, err := obs.ListenMetrics("127.0.0.1:0", reg, obs.ListenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	code, body := get(t, "http://"+bound+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	if !strings.Contains(body, "sep_trials_total 7") {
		t.Errorf("prometheus dump missing counter:\n%s", body)
	}
	if !strings.Contains(body, `sep_checks_total{condition="SC1"} 3`) {
		t.Errorf("prometheus dump missing labelled counter:\n%s", body)
	}

	// Counters advanced between scrapes must show up: the endpoint reads
	// live registry state, not a boot-time snapshot.
	reg.Counter("sep_trials_total").Add(1)
	if _, body = get(t, "http://"+bound+"/metrics"); !strings.Contains(body, "sep_trials_total 8") {
		t.Errorf("second scrape is stale:\n%s", body)
	}

	code, body = get(t, "http://"+bound+"/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("GET ?format=json = %d", code)
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(body), &parsed); err != nil {
		t.Fatalf("json scrape does not parse: %v\n%s", err, body)
	}

	if code, _ = get(t, "http://"+bound+"/metrics?format=xml"); code != http.StatusBadRequest {
		t.Errorf("unknown format = %d, want 400", code)
	}

	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + bound + "/metrics"); err == nil {
		t.Error("listener still serving after shutdown")
	}
}

// The pprof handlers must be present exactly when asked for: profiling a
// long verification run is opt-in, not an always-open debug surface.
func TestListenMetricsPprof(t *testing.T) {
	reg := obs.NewRegistry()
	bound, shutdown, err := obs.ListenMetrics("127.0.0.1:0", reg,
		obs.ListenOptions{Pprof: true})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	code, body := get(t, "http://"+bound+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ = %d", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index missing profiles:\n%s", body)
	}
	if code, _ = get(t, "http://"+bound+"/debug/pprof/heap"); code != http.StatusOK {
		t.Errorf("GET /debug/pprof/heap = %d", code)
	}
	if code, _ = get(t, "http://"+bound+"/metrics"); code != http.StatusOK {
		t.Errorf("metrics endpoint broken with pprof on: %d", code)
	}

	// Without the option, the debug surface must not exist.
	bound2, shutdown2, err := obs.ListenMetrics("127.0.0.1:0", reg, obs.ListenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown2()
	if code, _ = get(t, "http://"+bound2+"/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("pprof served without opt-in: %d", code)
	}
}

// TestListenMetricsShutdownRace hammers the endpoint from several scraper
// goroutines while counters advance and shutdown lands mid-flight. Under
// -race (make race) this pins the guarantee that stopping the listener
// never races the registry's atomic state or the server's handler; every
// scrape either succeeds with a well-formed body or fails with a transport
// error — nothing in between.
func TestListenMetricsShutdownRace(t *testing.T) {
	reg := obs.NewRegistry()
	bound, shutdown, err := obs.ListenMetrics("127.0.0.1:0", reg, obs.ListenOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const scrapers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < scrapers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				reg.Counter("sep_trials_total").Inc()
				resp, err := http.Get("http://" + bound + "/metrics")
				if err != nil {
					continue // shutdown won the race; that's the point
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr == nil && resp.StatusCode == http.StatusOK &&
					!strings.Contains(string(body), "sep_trials_total") {
					t.Error("scrape returned 200 with a malformed body")
					return
				}
			}
		}()
	}

	// Let the scrapers overlap the shutdown rather than strictly precede it.
	for reg.CounterValue("sep_trials_total") < 8 {
		runtime.Gosched()
	}
	if err := shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	close(stop)
	wg.Wait()

	// The registry must remain fully usable after the listener is gone.
	before := reg.CounterValue("sep_trials_total")
	reg.Counter("sep_trials_total").Inc()
	if reg.CounterValue("sep_trials_total") != before+1 {
		t.Error("registry wedged after shutdown")
	}
}
