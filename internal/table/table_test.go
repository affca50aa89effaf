package table

import (
	"strings"
	"testing"
)

func TestRenderAlignment(t *testing.T) {
	tb := New("n", "f", "ratio")
	tb.AddRow("2", "1", "9")
	tb.AddRow("41", "20", "3.24")
	out := tb.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	// All lines must have equal width.
	for i := 1; i < len(lines); i++ {
		if len(lines[i]) != len(lines[0]) {
			t.Errorf("line %d width %d != header width %d\n%s", i, len(lines[i]), len(lines[0]), out)
		}
	}
	if !strings.Contains(lines[1], "--") {
		t.Errorf("no separator row:\n%s", out)
	}
	if !strings.Contains(lines[3], "3.24") {
		t.Errorf("missing cell:\n%s", out)
	}
}

func TestAddRowPadsShortRows(t *testing.T) {
	tb := New("a", "b", "c")
	tb.AddRow("1")
	out := tb.Render()
	if !strings.Contains(out, "1") {
		t.Errorf("missing cell:\n%s", out)
	}
	if len(tb.rows) != 1 {
		t.Errorf("%d rows, want 1", len(tb.rows))
	}
}

func TestAddRowPanicsOnTooManyCells(t *testing.T) {
	tb := New("only")
	defer func() {
		if recover() == nil {
			t.Fatal("oversized row did not panic")
		}
	}()
	tb.AddRow("1", "2")
}

func TestRenderPanicsWithoutColumns(t *testing.T) {
	tb := New()
	defer func() {
		if recover() == nil {
			t.Fatal("empty table did not panic")
		}
	}()
	tb.Render()
}
