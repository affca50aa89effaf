package linesearch

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestSearcherConcurrentUse exercises the documented guarantee that a
// Searcher is safe for concurrent use: parallel queries across all API
// surfaces, checked under -race.
func TestSearcherConcurrentUse(t *testing.T) {
	s, err := New(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.SearchTime(17.5)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := s.SearchTime(17.5)
			if err != nil {
				errs <- err
			} else if got != want {
				t.Errorf("goroutine %d: SearchTime = %v, want %v", g, got, want)
			}
			if _, _, err := s.MeasureCR(); err != nil {
				errs <- err
			}
			if _, err := s.Timeline(3, []int{0, 1}, 50); err != nil {
				errs <- err
			}
			if _, err := s.MonteCarlo(50, int64(g)); err != nil {
				errs <- err
			}
			if _, err := s.Positions(float64(g) + 1); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// firstUseAnswers are a Searcher's answers to the questions that
// follow robots past their first visits: the expected-time series and
// the event timelines.
type firstUseAnswers struct {
	Expected    float64
	ExpectedErr string
	Timeline    []Event
	Faults      []Event
}

// askFirstUse asks s each question of firstUseAnswers once, starting
// with question first, so concurrent callers reach the kernel's first
// use through different questions.
func askFirstUse(s *Searcher, first int) (firstUseAnswers, error) {
	var a firstUseAnswers
	questions := []func() error{
		func() error {
			var err error
			if a.Expected, err = s.ExpectedSearchTime(-4, 0.25, nil); err != nil {
				a.ExpectedErr = err.Error()
			}
			return nil
		},
		func() (err error) { a.Timeline, err = s.Timeline(2.5, []int{1}, 60); return err },
		func() (err error) { a.Faults, err = s.TimelineFaults(-7.25, []int{0}, nil, 80); return err },
	}
	for i := range questions {
		if err := questions[(first+i)%len(questions)](); err != nil {
			return a, err
		}
	}
	return a, nil
}

// TestSeriesAndTimelineConcurrentFirstUse has 8 goroutines ask one
// freshly built scheduled Searcher the expected-time and timeline
// questions at the same moment, each starting with a different one,
// and checks every answer against a Searcher asked them one at a time.
// Run it under -race.
func TestSeriesAndTimelineConcurrentFirstUse(t *testing.T) {
	for _, tc := range []struct {
		n, f int
		opts []Option
	}{
		{5, 2, nil},
		{7, 3, []Option{WithStrategy("cone:2.5"), WithMinDistance(0.5)}},
		{9, 2, []Option{WithFaultModel("byzantine")}},
	} {
		ref, err := NewSearcher(tc.n, tc.f, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := askFirstUse(ref, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSearcher(tc.n, tc.f, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		got := make([]firstUseAnswers, 8)
		errs := make([]error, len(got))
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[g], errs[g] = askFirstUse(s, g)
			}()
		}
		close(start)
		wg.Wait()
		for g := range got {
			if errs[g] != nil {
				t.Fatalf("%s(%d, %d) goroutine %d: %v", s.Strategy(), tc.n, tc.f, g, errs[g])
			}
			if !reflect.DeepEqual(got[g], want) {
				t.Errorf("%s(%d, %d) goroutine %d: %+v, want %+v", s.Strategy(), tc.n, tc.f, g, got[g], want)
			}
		}
	}
}

// TestScheduledSearcherBuildsNoPlan asks every public question of
// Searchers whose kernel compiles from a schedule's closed form or from
// the trajectories of twogroup, doubling and pfaulty: the service's hot
// path, the measured competitive ratio, the Theorem 2 game, the fault
// questions read from the kernel's first visits (detection under a
// fault list, the adversary's fault set, a fleet at other speeds, Monte
// Carlo trials and positions), the expected-time series and the
// timelines. The kernel answers them all: TestProductionImportsNoSim
// checks that the code asking them cannot build an exact-engine plan.
func TestScheduledSearcherBuildsNoPlan(t *testing.T) {
	for _, tc := range []struct {
		n, f int
		opts []Option
	}{
		{5, 2, nil},
		{5, 2, []Option{WithStrategy("cone:3"), WithMinDistance(2)}},
		{5, 2, []Option{WithFaultModel("byzantine"), WithStrategy("proportional")}},
		{5, 2, []Option{WithStrategy("uniform:1.5")}},
		{5, 2, []Option{WithStrategy("uniform:100"), WithMinDistance(1e-7)}},
		{6, 2, []Option{WithStrategy("twogroup")}},
		{5, 2, []Option{WithStrategy("doubling")}},
		{5, 2, []Option{WithStrategy("pfaulty")}},
	} {
		s, err := NewSearcher(tc.n, tc.f, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.SearchTime(7.5); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SearchTimes([]float64{-3, 2.5, 40}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.KthVisitTime(-9, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := s.TurningPoints(100); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CompetitiveRatio(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.MeasureCR(); err != nil {
			t.Fatal(err)
		}
		if s.FaultModel() == "crash" && s.Strategy() != "twogroup" && s.Strategy() != "pfaulty" {
			if _, _, err := s.VerifyLowerBound(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.DetectionTime(-7.25, []int{0}); err != nil {
			t.Fatal(err)
		}
		_ = s.WorstFaultSet(3.5)
		if _, err := s.SearchTimeWithSpeeds(11, []float64{1, 1.125, 1.25, 1.375, 1.5, 1.625}[:s.N()]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SearchTimeWithSpeeds(11, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := s.MonteCarlo(20, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Positions(9.5); err != nil {
			t.Fatal(err)
		}
		if s.Votes() == 1 {
			if _, err := s.ExpectedSearchTime(-6, 0.25, []float64{1.5}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Timeline(4.5, s.WorstFaultSet(4.5), 60); err != nil {
			t.Fatal(err)
		}
		if _, err := s.TimelineFaults(-7.25, []int{0}, nil, 80); err != nil {
			t.Fatal(err)
		}
		_, _, _ = s.FaultModel(), s.Votes(), s.DetectionRank()
	}
}

// TestProductionImportsNoSim checks that no non-test file of the root
// package or of internal/sweep imports internal/sim: every question a
// Searcher or a sweep cell answers runs on the compiled kernel, and the
// exact engine is only the tests' oracle.
func TestProductionImportsNoSim(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{".", "internal/sweep"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "linesearch/internal/sim" {
					t.Errorf("%s imports %s", name, path)
				}
			}
			checked++
		}
		if checked == 0 {
			t.Errorf("no non-test Go file in %s", dir)
		}
	}
}
