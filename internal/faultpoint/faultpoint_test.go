package faultpoint

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestDisarmedHitIsNil(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if err := r.Hit("anything"); err != nil {
			t.Fatalf("disarmed hit returned %v", err)
		}
	}
	if r.armed.Load() > 0 {
		t.Error("registry reports enabled with nothing armed")
	}
	// The fast path is unobserved: no counters accumulate.
	if snap := r.Snapshot(); snap.Armed != 0 || snap.Injected != 0 || len(snap.Points) != 0 {
		t.Errorf("disarmed snapshot = %+v", snap)
	}
}

func TestErrorModeDefaultIsTransientInjected(t *testing.T) {
	r := New(1)
	r.Arm("p", Rule{})
	err := r.Hit("p")
	if err == nil {
		t.Fatal("armed point did not fire")
	}
	if !IsInjected(err) {
		t.Errorf("default error not marked injected: %v", err)
	}
	if !IsTransient(err) {
		t.Errorf("default error not transient: %v", err)
	}
}

func TestErrorModeCustomError(t *testing.T) {
	r := New(1)
	boom := errors.New("permanent boom")
	r.Arm("p", Rule{Err: boom})
	if err := r.Hit("p"); !errors.Is(err, boom) {
		t.Errorf("got %v, want the custom error", err)
	}
	if IsTransient(errors.New("plain")) || IsInjected(errors.New("plain")) {
		t.Error("plain errors misclassified")
	}
}

func TestCountArming(t *testing.T) {
	r := New(1)
	// Skip 2 hits, then fire exactly 3 times.
	r.Arm("p", Rule{After: 2, Times: 3})
	var fired int
	for i := 0; i < 10; i++ {
		if r.Hit("p") != nil {
			fired++
			if i < 2 {
				t.Errorf("fired on skipped hit %d", i)
			}
		}
	}
	if fired != 3 {
		t.Errorf("fired %d times, want 3", fired)
	}
	// Exhausted points self-disarm, restoring the fast path.
	if r.armed.Load() > 0 {
		t.Error("registry still enabled after the rule exhausted itself")
	}
	snap := r.Snapshot()
	if snap.Injected != 3 || snap.Points["p"].Fired != 3 || snap.Points["p"].Armed {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestProbabilityModeSeededAndReproducible(t *testing.T) {
	run := func(seed int64) []bool {
		r := New(seed)
		r.Arm("p", Rule{P: 0.5})
		out := make([]bool, 200)
		for i := range out {
			out[i] = r.Hit("p") != nil
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
	}
	fired := 0
	for _, f := range a {
		if f {
			fired++
		}
	}
	if fired < 60 || fired > 140 {
		t.Errorf("p=0.5 fired %d/200 times", fired)
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

func TestSeedRewindsSchedule(t *testing.T) {
	r := New(7)
	r.Arm("p", Rule{P: 0.3})
	first := make([]bool, 50)
	for i := range first {
		first[i] = r.Hit("p") != nil
	}
	r.Seed(7)
	r.Arm("p", Rule{P: 0.3}) // re-arm to reset hit counters
	for i := range first {
		if got := r.Hit("p") != nil; got != first[i] {
			t.Fatalf("re-seeded schedule diverged at hit %d", i)
		}
	}
}

func TestLatencyMode(t *testing.T) {
	r := New(1)
	r.Arm("p", Rule{Mode: ModeLatency, Delay: 20 * time.Millisecond, Times: 1})
	start := time.Now()
	if err := r.Hit("p"); err != nil {
		t.Fatalf("latency mode returned an error: %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("hit returned after %v, want >= 20ms", d)
	}
	if err := r.Hit("p"); err != nil {
		t.Errorf("exhausted latency point returned %v", err)
	}
}

func TestPanicMode(t *testing.T) {
	r := New(1)
	r.Arm("p", Rule{Mode: ModePanic})
	defer func() {
		if recover() == nil {
			t.Error("panic mode did not panic")
		}
	}()
	r.Hit("p")
}

func TestReset(t *testing.T) {
	r := New(1)
	r.Arm("a", Rule{})
	r.Arm("b", Rule{})
	if r.Hit("b") == nil {
		t.Error("armed point did not fire")
	}
	r.Reset()
	if r.armed.Load() != 0 || r.Hit("a") != nil || r.Hit("b") != nil {
		t.Error("Reset left the registry armed")
	}
	if snap := r.Snapshot(); snap.Injected != 0 || len(snap.Points) != 0 {
		t.Errorf("Reset kept counters: %+v", snap)
	}
}

func TestConcurrentHits(t *testing.T) {
	r := New(1)
	r.Arm("p", Rule{P: 0.5})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Hit("p")
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap.Points["p"].Hits != 8000 {
		t.Errorf("hits = %d, want 8000", snap.Points["p"].Hits)
	}
	if snap.Injected == 0 || snap.Injected != snap.Points["p"].Fired {
		t.Errorf("injected %d vs fired %d", snap.Injected, snap.Points["p"].Fired)
	}
}

func TestDefaultRegistryHelpers(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Seed(99)
	if std.armed.Load() > 0 {
		t.Fatal("fresh default registry is armed")
	}
	Arm("pkg.point", Rule{Times: 1})
	if std.armed.Load() == 0 {
		t.Fatal("Arm did not enable the default registry")
	}
	if Hit("pkg.point") == nil {
		t.Error("default registry point did not fire")
	}
	if got := Stats(); got.Injected != 1 {
		t.Errorf("Stats().Injected = %d", got.Injected)
	}
}

// BenchmarkHitDisarmed proves the acceptance bar: a disarmed fault
// point on the hot path is one atomic load — no allocations.
func BenchmarkHitDisarmed(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.Hit("hot.path"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHitArmedMiss(b *testing.B) {
	r := New(1)
	r.Arm("other.point", Rule{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.Hit("hot.path"); err != nil {
			b.Fatal(err)
		}
	}
}
