package obs_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestGaugeSetAndExport(t *testing.T) {
	r := obs.NewRegistry()
	r.Gauge(`sep_watch_last_verdict{deployment="honest"}`).Set(1)
	r.Gauge("sep_watch_ledger_age_seconds").Set(12.5)
	r.Gauge("sep_watch_ledger_age_seconds").Set(3.25) // settable both ways
	r.Counter("sep_watch_cycles_total").Add(2)

	if got := r.GaugeValue("sep_watch_ledger_age_seconds"); got != 3.25 {
		t.Fatalf("GaugeValue = %g, want 3.25", got)
	}
	if got := r.GaugeValue("nonexistent"); got != 0 {
		t.Fatalf("absent gauge = %g, want 0", got)
	}

	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"sep_watch_cycles_total 2\n",
		"sep_watch_ledger_age_seconds 3.25\n",
		`sep_watch_last_verdict{deployment="honest"} 1` + "\n",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("Prometheus export missing %q:\n%s", want, prom.String())
		}
	}

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Counters map[string]uint64  `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatalf("WriteJSON output not JSON: %v\n%s", err, js.String())
	}
	if decoded.Gauges["sep_watch_ledger_age_seconds"] != 3.25 {
		t.Errorf("JSON gauges = %v", decoded.Gauges)
	}
	if decoded.Counters["sep_watch_cycles_total"] != 2 {
		t.Errorf("JSON counters = %v", decoded.Counters)
	}
}

// Equal registries must export byte-identical text regardless of the order
// gauges were created in (the same determinism contract counters have).
func TestGaugeExportDeterministic(t *testing.T) {
	a, b := obs.NewRegistry(), obs.NewRegistry()
	a.Gauge("za").Set(1)
	a.Gauge("ab").Set(2)
	b.Gauge("ab").Set(2)
	b.Gauge("za").Set(1)
	var pa, pb bytes.Buffer
	a.WritePrometheus(&pa)
	b.WritePrometheus(&pb)
	if pa.String() != pb.String() {
		t.Errorf("export order-dependent:\n%s\nvs\n%s", pa.String(), pb.String())
	}
}

func TestGaugeConcurrentSet(t *testing.T) {
	r := obs.NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Gauge("g").Set(float64(i))
			}
		}(i)
	}
	wg.Wait()
	if v := r.GaugeValue("g"); v < 0 || v > 7 {
		t.Fatalf("gauge holds torn value %g", v)
	}
}

// Extra handlers mount beside /metrics on the same listener; "/metrics"
// itself cannot be shadowed.
func TestListenMetricsExtraHandlers(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("c_total").Inc()
	bound, shutdown, err := obs.ListenMetrics("127.0.0.1:0", r, obs.ListenOptions{
		Handlers: map[string]http.Handler{
			"/status": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				io.WriteString(w, `{"ok":true}`)
			}),
			"/metrics": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				io.WriteString(w, "shadowed")
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	get := func(path string) string {
		resp, err := http.Get("http://" + bound + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got := get("/status"); got != `{"ok":true}` {
		t.Errorf("/status = %q", got)
	}
	if got := get("/metrics"); !strings.Contains(got, "c_total 1") {
		t.Errorf("/metrics shadowed by extra handler: %q", got)
	}
}
