package telemetry

import (
	"context"
	"sync"
	"testing"
	"time"
)

// BenchmarkUntracedRequest is the overhead every unsampled request
// pays: one StartRequest, a child span attempt, attribute sets, two
// Ends. The contract is 0 allocs/op (gated by cmd/benchjson -compare).
func BenchmarkUntracedRequest(b *testing.B) {
	tr := New(Config{SampleRate: 0.000001})
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx2, root := tr.StartRequest(ctx, "/v1/plan", "")
		_, child := StartSpan(ctx2, "eval")
		child.SetStr("op", "plan")
		child.SetInt("status", 200)
		child.End()
		root.End()
	}
}

// BenchmarkTracedRequest is the sampled-path cost: a root span, three
// nested stage spans with attributes, snapshot and ring insertion.
func BenchmarkTracedRequest(b *testing.B) {
	tr := New(Config{SampleRate: 1})
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx2, root := tr.StartRequest(ctx, "/v1/plan", "")
		ctx3, eval := StartSpan(ctx2, "eval")
		eval.SetStr("op", "plan")
		_, build := StartSpan(ctx3, "plan.build")
		build.SetBool("cache_hit", true)
		build.End()
		_, geom := StartSpan(ctx3, "plan.geometry")
		geom.End()
		eval.End()
		root.SetInt("status", 200)
		root.End()
	}
}

// BenchmarkTracedBatchTrace is the sampled cost of a 64-item batch:
// a root, a fan-out span, and 64 children with two attributes each,
// started by two goroutines as the batch workers start them.
func BenchmarkTracedBatchTrace(b *testing.B) {
	tr := New(Config{SampleRate: 1})
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx2, root := tr.StartRequest(ctx, "/v1/batch", "")
		ctx3, fan := StartSpan(ctx2, "batch.fanout")
		fan.SetInt("queries", 64)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 32; j++ {
					_, eval := StartSpan(ctx3, "eval")
					eval.SetStr("op", "searchtimes")
					eval.SetBool("cache_hit", true)
					eval.End()
				}
			}()
		}
		wg.Wait()
		fan.End()
		root.End()
	}
}

// BenchmarkUntracedPropagation is the outbound-propagation cost on an
// unsampled request: the router calls Traceparent on every forward, so
// the no-trace case must stay at zero allocations.
func BenchmarkUntracedPropagation(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tp := Traceparent(ctx); tp != "" {
			b.Fatal("unexpected traceparent without a trace")
		}
	}
}

// BenchmarkTraceparentParse covers header adoption on the request path.
func BenchmarkTraceparentParse(b *testing.B) {
	const h = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := parseTraceparent(h); !ok {
			b.Fatal("parse failed")
		}
	}
}

// BenchmarkHistogramObserve is the always-on per-cell/per-request
// histogram cost.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i%1000) * time.Microsecond)
	}
}
