// Command benchjson turns `go test -bench -benchmem` output into a
// small machine-readable JSON report, and compares two such reports for
// allocation regressions.
//
// Convert (reads the benchmark log from stdin):
//
//	go test -bench . -benchmem ./internal/compiled | benchjson -o BENCH.json
//
// Compare (exits 1 when any benchmark's allocs/op grew by more than the
// allowed factor over the baseline, or a baseline benchmark is missing
// from the new report):
//
//	benchjson -compare BENCH_baseline.json BENCH.json
//
// The report is deliberately timestamp-free and sorted by name so that
// reruns with identical allocation behaviour diff cleanly in git.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Runs        int64   `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Report is the file format.
type Report struct {
	Benchmarks []Benchmark `json:"benchmarks"`
}

// benchLine matches one `go test -bench -benchmem` result, e.g.
//
//	BenchmarkCompiledBatch/100-8   17470   7239 ns/op   0 B/op   0 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	var (
		out     = flag.String("o", "", "write the JSON report to this file (default stdout)")
		compare = flag.Bool("compare", false, "compare two reports: benchjson -compare baseline.json new.json")
		factor  = flag.Float64("factor", 2, "allowed allocs/op growth factor in -compare mode")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare baseline.json new.json")
			os.Exit(2)
		}
		regressions, err := compareFiles(flag.Arg(0), flag.Arg(1), *factor)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		for _, r := range regressions {
			fmt.Println(r)
		}
		if len(regressions) > 0 {
			os.Exit(1)
		}
		fmt.Println("benchjson: no allocation regressions")
		return
	}

	report, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	if len(report.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(2)
	}
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
}

// Parse reads a `go test -bench -benchmem` log and returns the sorted
// report. Non-benchmark lines (headers, PASS, ok) are skipped.
func Parse(r io.Reader) (Report, error) {
	var rep Report
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		runs, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return rep, fmt.Errorf("bad run count in %q: %v", sc.Text(), err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return rep, fmt.Errorf("bad ns/op in %q: %v", sc.Text(), err)
		}
		b := Benchmark{Name: m[1], Runs: runs, NsPerOp: ns}
		if m[4] != "" {
			if b.BytesPerOp, err = strconv.ParseInt(m[4], 10, 64); err != nil {
				return rep, fmt.Errorf("bad B/op in %q: %v", sc.Text(), err)
			}
		}
		if m[5] != "" {
			if b.AllocsPerOp, err = strconv.ParseInt(m[5], 10, 64); err != nil {
				return rep, fmt.Errorf("bad allocs/op in %q: %v", sc.Text(), err)
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool {
		return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name
	})
	return rep, nil
}

// Compare returns one message per benchmark whose allocs/op in next
// exceeds factor times the baseline's (so a 0-allocs/op baseline
// stays at 0), and one per baseline benchmark missing
// from next: a renamed or deleted benchmark must leave the baseline
// too, or it would silently drop out of the gate. A benchmark with no
// baseline entry is allowed — the baseline may predate it.
func Compare(base, next Report, factor float64) []string {
	current := make(map[string]Benchmark, len(next.Benchmarks))
	for _, n := range next.Benchmarks {
		current[n.Name] = n
	}
	var regressions []string
	for _, old := range base.Benchmarks {
		n, ok := current[old.Name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf(
				"%s: in the baseline but missing from the new report", old.Name))
			continue
		}
		limit := factor * float64(old.AllocsPerOp)
		if float64(n.AllocsPerOp) > limit {
			regressions = append(regressions, fmt.Sprintf(
				"%s: allocs/op %d exceeds %.3gx baseline %d",
				n.Name, n.AllocsPerOp, factor, old.AllocsPerOp))
		}
	}
	return regressions
}

func compareFiles(basePath, nextPath string, factor float64) ([]string, error) {
	base, err := readReport(basePath)
	if err != nil {
		return nil, err
	}
	next, err := readReport(nextPath)
	if err != nil {
		return nil, err
	}
	return Compare(base, next, factor), nil
}

func readReport(path string) (Report, error) {
	var rep Report
	raw, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, fmt.Errorf("%s: %v", path, err)
	}
	return rep, nil
}
