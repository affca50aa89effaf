package main

import (
	"strings"
	"testing"
)

const sampleLog = `goos: linux
goarch: amd64
pkg: linesearch/internal/compiled
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkCompileCold       	   20349	      5350 ns/op	    4992 B/op	      73 allocs/op
BenchmarkCompiledBatch/10000         	     198	    639660 ns/op	       0 B/op	       0 allocs/op
BenchmarkSimBatch/10000              	      10	  11978215 ns/op	 1680000 B/op	   40000 allocs/op
BenchmarkSearchTimeHot     	 1836189	        70.80 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	linesearch/internal/compiled	1.638s
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(sampleLog))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(rep.Benchmarks))
	}
	// Sorted by name, GOMAXPROCS suffix stripped.
	wantNames := []string{
		"BenchmarkCompileCold",
		"BenchmarkCompiledBatch/10000",
		"BenchmarkSearchTimeHot",
		"BenchmarkSimBatch/10000",
	}
	for i, want := range wantNames {
		if rep.Benchmarks[i].Name != want {
			t.Errorf("benchmarks[%d].Name = %q, want %q", i, rep.Benchmarks[i].Name, want)
		}
	}
	cold := rep.Benchmarks[0]
	if cold.Runs != 20349 || cold.NsPerOp != 5350 || cold.BytesPerOp != 4992 || cold.AllocsPerOp != 73 {
		t.Errorf("CompileCold = %+v", cold)
	}
	hot := rep.Benchmarks[2]
	if hot.NsPerOp != 70.80 || hot.AllocsPerOp != 0 {
		t.Errorf("SearchTimeHot = %+v", hot)
	}
}

func TestParseSkipsNoise(t *testing.T) {
	rep, err := Parse(strings.NewReader("PASS\nok  pkg 1s\nnot a benchmark\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Errorf("parsed %d benchmarks from noise", len(rep.Benchmarks))
	}
}

func TestCompare(t *testing.T) {
	base := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", AllocsPerOp: 10},
		{Name: "BenchmarkZero", AllocsPerOp: 0},
	}}
	next := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", AllocsPerOp: 20},    // exactly 2x: allowed
		{Name: "BenchmarkZero", AllocsPerOp: 0},  // a 0-alloc baseline held at 0
		{Name: "BenchmarkNew", AllocsPerOp: 999}, // no baseline: ignored
	}}
	if regs := Compare(base, next, 2); len(regs) != 0 {
		t.Errorf("unexpected regressions: %v", regs)
	}

	next.Benchmarks[0].AllocsPerOp = 21 // just past 2x
	next.Benchmarks[1].AllocsPerOp = 1  // 0 -> 1 breaks a 0-alloc contract
	regs := Compare(base, next, 2)
	if len(regs) != 2 {
		t.Fatalf("regressions = %v, want 2", regs)
	}
	for _, want := range []string{"BenchmarkA", "BenchmarkZero"} {
		found := false
		for _, r := range regs {
			if strings.HasPrefix(r, want+":") {
				found = true
			}
		}
		if !found {
			t.Errorf("no regression reported for %s: %v", want, regs)
		}
	}
}

// TestCompareMissingBaseline: a baseline benchmark absent from the new
// report fails the gate, so a renamed or deleted benchmark cannot drop
// out of it unnoticed.
func TestCompareMissingBaseline(t *testing.T) {
	base := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", AllocsPerOp: 10},
		{Name: "BenchmarkGone", AllocsPerOp: 5},
	}}
	next := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", AllocsPerOp: 10},
		{Name: "BenchmarkNew", AllocsPerOp: 999},
	}}
	regs := Compare(base, next, 2)
	if len(regs) != 1 || !strings.HasPrefix(regs[0], "BenchmarkGone:") {
		t.Fatalf("regressions = %v, want exactly one for BenchmarkGone", regs)
	}
}
