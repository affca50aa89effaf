package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"linesearch/internal/experiments"
	"linesearch/internal/trace"
)

func TestRunSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"table1"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"== table1:", "comp. ratio", "41  20"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"bogus"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	lines := strings.Fields(out.String())
	if len(lines) != len(experiments.IDs()) {
		t.Errorf("listed %d experiments, want %d", len(lines), len(experiments.IDs()))
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-nope"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunExportsCSVAndJSON(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-csv", filepath.Join(dir, "csv"), "-json", filepath.Join(dir, "json"), "fig5right"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	csvPath := filepath.Join(dir, "csv", "fig5right.csv")
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatalf("read exported CSV: %v", err)
	}
	if !strings.HasPrefix(string(data), "a,cr\n") {
		t.Errorf("CSV header missing: %q", string(data[:20]))
	}
	jsonPath := filepath.Join(dir, "json", "fig5right.json")
	f, err := os.Open(jsonPath)
	if err != nil {
		t.Fatalf("open exported JSON: %v", err)
	}
	defer f.Close()
	ds, err := trace.ReadJSON(f)
	if err != nil {
		t.Fatalf("decode exported JSON: %v", err)
	}
	if ds.Name != "fig5right" || len(ds.Rows) != 101 {
		t.Errorf("exported dataset: name %q, %d rows", ds.Name, len(ds.Rows))
	}
}

func TestRunExportFailsOnUnwritableDir(t *testing.T) {
	var out bytes.Buffer
	// A path under a file (not a directory) cannot be created.
	tmp := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(tmp, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-csv", filepath.Join(tmp, "sub"), "table1"}, &out)
	if err == nil {
		t.Error("export into unwritable path succeeded")
	}
}

// TestDatasetsMatchCheckedIn regenerates every experiment's datasets and
// compares them byte for byte with the checked-in data/csv and
// data/json, so any change to an evaluator that moves a published
// number fails here rather than silently drifting from the data.
func TestDatasetsMatchCheckedIn(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every experiment")
	}
	dir := t.TempDir()
	if err := run([]string{"-csv", filepath.Join(dir, "csv"), "-json", filepath.Join(dir, "json")}, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, format := range []string{"csv", "json"} {
		want := filepath.Join("..", "..", "data", format)
		got := filepath.Join(dir, format)
		wantNames := datasetNames(t, want)
		if gotNames := datasetNames(t, got); strings.Join(gotNames, " ") != strings.Join(wantNames, " ") {
			t.Fatalf("%s: regenerated %v, checked in %v", format, gotNames, wantNames)
		}
		for _, name := range wantNames {
			a, err := os.ReadFile(filepath.Join(want, name))
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(got, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s/%s differs from the checked-in dataset (rerun `make data` only if the change is intended)", format, name)
			}
		}
	}
}

// datasetNames lists the regular files in dir, sorted.
func datasetNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	return names
}
