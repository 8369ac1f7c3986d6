package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// This file closes the ROADMAP item "stream sepverify -progress counters
// over an HTTP /metrics endpoint": the registry already speaks the
// Prometheus text format, so the listener is a thin stdlib shim around it.
// Package obs stays dependency-free — net/http is standard library.

// MetricsHandler serves a registry snapshot. The default representation is
// the Prometheus text exposition format; `?format=json` returns the same
// snapshot as JSON (the WriteJSON encoding).
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Query().Get("format") {
		case "", "prom":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = r.WritePrometheus(w)
		case "json":
			w.Header().Set("Content-Type", "application/json")
			_ = r.WriteJSON(w)
		default:
			http.Error(w, "unknown format (want prom or json)", http.StatusBadRequest)
		}
	})
}

// ListenOptions tunes ListenMetrics; the zero value serves /metrics only.
type ListenOptions struct {
	// Pprof additionally serves the net/http/pprof profiling handlers
	// under /debug/pprof/, so long verification runs can be profiled live
	// (go tool pprof http://ADDR/debug/pprof/profile) instead of only via
	// -cpuprofile files written at exit.
	Pprof bool
	// Handlers mounts additional endpoints on the same listener, keyed by
	// pattern ("/status"). /metrics always serves the registry; a Handlers
	// entry for "/metrics" is ignored. Long-running services (sepwatch)
	// use this to co-host their status JSON with the metrics scrape.
	Handlers map[string]http.Handler
}

// ListenMetrics exposes the registry at /metrics on addr (use host:0 for an
// ephemeral port), plus whatever opt adds. It returns the bound address and
// a shutdown function that stops the listener; scraping never perturbs the
// counters beyond the atomic loads the registry already performs.
func ListenMetrics(addr string, r *Registry, opt ListenOptions) (bound string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	for pattern, h := range opt.Handlers {
		if pattern == "/metrics" {
			continue
		}
		mux.Handle(pattern, h)
	}
	mux.Handle("/metrics", MetricsHandler(r))
	if opt.Pprof {
		// The pprof package registers only on http.DefaultServeMux; wire
		// its handlers onto the private mux explicitly.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
