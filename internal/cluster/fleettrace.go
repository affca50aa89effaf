package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"

	"linesearch/internal/telemetry"
	"linesearch/internal/telemetry/journal"
)

// routerProcess is the hop label for spans recorded by the router's
// own tracer in a stitched fleet trace.
const routerProcess = "router"

// FleetHop is one process's view of a stitched trace: the router or
// one backend, with that process's local trace tree.
type FleetHop struct {
	Process         string                  `json:"process"`
	DurationSeconds float64                 `json:"duration_seconds"`
	SpanCount       int                     `json:"span_count"`
	Trace           telemetry.TraceSnapshot `json:"trace"`
	// ref is a router hop's trace, rendered into Trace only when the
	// hop's stitched trace survives the n cut.
	ref telemetry.TraceRef
}

// FleetTrace is one trace id's hops merged across the fleet. Hops are
// ordered router-first, then backends by name, so the tree reads in
// request direction. SlowestHop names the backend hop with the largest
// local duration — where the wall-clock went — falling back to the
// router when the trace never left it.
type FleetTrace struct {
	TraceID           string     `json:"trace_id"`
	Start             time.Time  `json:"start"`
	DurationSeconds   float64    `json:"duration_seconds"`
	Processes         int        `json:"processes"`
	SlowestHop        string     `json:"slowest_hop"`
	SlowestHopSeconds float64    `json:"slowest_hop_seconds"`
	Hops              []FleetHop `json:"hops"`
}

// fleetTracesResponse answers GET /debug/fleet-traces.
type fleetTracesResponse struct {
	// Count is the number of distinct trace ids seen across the fleet
	// (before the n cut).
	Count int `json:"count"`
	// Scraped lists the backends whose rings were merged; Errors maps a
	// backend that could not be scraped to the reason (a dead shard must
	// not make the debugging endpoint itself fail).
	Scraped []string          `json:"scraped"`
	Errors  map[string]string `json:"errors,omitempty"`
	Traces  []FleetTrace      `json:"traces"`
}

// handleFleetTraces scrapes every backend's /debug/traces ring, merges
// it with the router's own, and groups spans by trace id: the stitched
// cross-process view. One traced request shows up as a router hop (the
// proxy root with its forward legs) plus one hop per backend the
// traceparent reached.
//
//	GET /debug/fleet-traces?n=20            the n most recent stitched traces
//	GET /debug/fleet-traces?trace=<id>      one trace id only
//	GET /debug/fleet-traces?scrape_n=64     per-process ring depth to fetch
func (r *Router) handleFleetTraces(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	n := 20
	if raw := q.Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			telemetry.WriteJSONError(w, http.StatusBadRequest, "parameter n must be a positive integer")
			return
		}
		n = v
	}
	scrapeN := 64
	if raw := q.Get("scrape_n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			telemetry.WriteJSONError(w, http.StatusBadRequest, "parameter scrape_n must be a positive integer")
			return
		}
		scrapeN = v
	}
	wantID := q.Get("trace")

	r.mu.RLock()
	backends := make([]*backend, 0, len(r.backends))
	for _, b := range r.backends {
		backends = append(backends, b)
	}
	r.mu.RUnlock()
	sort.Slice(backends, func(i, j int) bool { return backends[i].name < backends[j].name })

	type scraped struct {
		process string
		traces  []telemetry.TraceSnapshot
		err     error
	}
	results := make([]scraped, len(backends))
	done := make(chan int, len(backends))
	for i, b := range backends {
		i, b := i, b
		go func() {
			var body telemetry.TracesResponse
			url := fmt.Sprintf("%s/debug/traces?n=%d&sort=recent", b.base, scrapeN)
			_, err := telemetry.CallJSON(req.Context(), r.client, http.MethodGet, url, nil, &body, maxResponseBody)
			results[i] = scraped{process: b.name, traces: body.Traces, err: err}
			done <- i
		}()
	}
	for range backends {
		<-done
	}

	resp := fleetTracesResponse{Scraped: make([]string, 0, len(backends))}
	byID := make(map[string]*FleetTrace)
	add := func(id string, start time.Time, hop FleetHop) {
		if wantID != "" && id != wantID {
			return
		}
		ft, ok := byID[id]
		if !ok {
			ft = &FleetTrace{TraceID: id, Start: start}
			byID[id] = ft
		}
		if start.Before(ft.Start) {
			ft.Start = start
		}
		ft.Hops = append(ft.Hops, hop)
	}
	// The router's ring first: its hop sorts to the front of every
	// stitched trace, and its root span bounds the whole request.
	for _, ref := range r.tracer.Refs() {
		add(ref.ID, ref.Start, FleetHop{Process: routerProcess, DurationSeconds: ref.Duration.Seconds(), ref: ref})
	}
	for _, res := range results {
		if res.err != nil {
			if resp.Errors == nil {
				resp.Errors = make(map[string]string)
			}
			resp.Errors[res.process] = res.err.Error()
			continue
		}
		resp.Scraped = append(resp.Scraped, res.process)
		for _, tr := range res.traces {
			add(tr.TraceID, tr.Start, FleetHop{Process: res.process, DurationSeconds: tr.DurationSeconds, SpanCount: tr.SpanCount, Trace: tr})
		}
	}

	merged := make([]FleetTrace, 0, len(byID))
	for _, ft := range byID {
		sort.Slice(ft.Hops, func(i, j int) bool {
			hi, hj := ft.Hops[i], ft.Hops[j]
			if (hi.Process == routerProcess) != (hj.Process == routerProcess) {
				return hi.Process == routerProcess
			}
			return hi.Process < hj.Process
		})
		ft.Processes = len(ft.Hops)
		for _, hop := range ft.Hops {
			if hop.DurationSeconds > ft.DurationSeconds {
				ft.DurationSeconds = hop.DurationSeconds
			}
			if hop.Process == routerProcess {
				continue
			}
			if hop.DurationSeconds > ft.SlowestHopSeconds || ft.SlowestHop == "" {
				ft.SlowestHop = hop.Process
				ft.SlowestHopSeconds = hop.DurationSeconds
			}
		}
		if ft.SlowestHop == "" {
			// The trace never left the router (every attempt failed
			// before a backend sampled it, or the request was answered
			// locally): the router is the slowest — and only — hop.
			ft.SlowestHop = routerProcess
			ft.SlowestHopSeconds = ft.Hops[0].DurationSeconds
		}
		merged = append(merged, *ft)
	}
	sort.Slice(merged, func(i, j int) bool {
		if !merged[i].Start.Equal(merged[j].Start) {
			return merged[i].Start.After(merged[j].Start)
		}
		return merged[i].TraceID < merged[j].TraceID
	})
	resp.Count = len(merged)
	if len(merged) > n {
		merged = merged[:n]
	}
	for _, ft := range merged {
		for i, hop := range ft.Hops {
			if hop.Process == routerProcess {
				ft.Hops[i].Trace = hop.ref.Snapshot()
				ft.Hops[i].SpanCount = ft.Hops[i].Trace.SpanCount
			}
		}
	}
	resp.Traces = merged
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// DebugHandler returns the router's operator debug surface for a
// separate loopback-only listener (linerouter's -debug-addr flag):
// net/http/pprof, the router's own trace ring, the stitched fleet
// view, the event journal, and the metrics/health endpoints. Never
// part of Handler() on the serving port — profiling endpoints can
// stall the process.
func (r *Router) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/traces", telemetry.TracesHandler(r.tracer))
	mux.HandleFunc("/debug/fleet-traces", r.handleFleetTraces)
	mux.Handle("/debug/events", journal.Handler(r.journal))
	mux.HandleFunc("/metrics", r.handleMetrics)
	mux.HandleFunc("/healthz", r.handleHealthz)
	return mux
}
