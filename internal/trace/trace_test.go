package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestDatasetRoundTrip(t *testing.T) {
	d := &Dataset{Name: "demo", Columns: []string{"x", "y"}}
	if err := d.AddRow(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.AddRow(3, 4.5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "demo" || len(back.Rows) != 2 || back.Rows[1][1] != 4.5 {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestDatasetJSONNaNRoundTrip(t *testing.T) {
	d := &Dataset{Name: "blanks", Columns: []string{"a", "b"}}
	if err := d.AddRow(1, math.NaN()); err != nil {
		t.Fatal(err)
	}
	if err := d.AddRow(math.Inf(1), 4); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON with NaN: %v", err)
	}
	if !strings.Contains(buf.String(), "null") {
		t.Errorf("non-finite cells not encoded as null: %s", buf.String())
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(back.Rows[0][1]) || !math.IsNaN(back.Rows[1][0]) {
		t.Errorf("null cells not decoded to NaN: %v", back.Rows)
	}
	if back.Rows[0][0] != 1 || back.Rows[1][1] != 4 {
		t.Errorf("finite cells corrupted: %v", back.Rows)
	}
}

func TestDatasetCSV(t *testing.T) {
	d := &Dataset{Name: "demo", Columns: []string{"n", "cr"}}
	if err := d.AddRow(3, 5.233); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.HasPrefix(got, "n,cr\n") {
		t.Errorf("missing header: %q", got)
	}
	if !strings.Contains(got, "5.233") {
		t.Errorf("missing value: %q", got)
	}
}

func TestDatasetValidation(t *testing.T) {
	d := &Dataset{Name: "demo", Columns: []string{"a", "b"}}
	if err := d.AddRow(1); err == nil {
		t.Error("short row accepted")
	}
	bad := &Dataset{Name: "", Columns: []string{"a"}}
	if err := bad.Validate(); err == nil {
		t.Error("unnamed dataset accepted")
	}
	noCols := &Dataset{Name: "x"}
	if err := noCols.Validate(); err == nil {
		t.Error("column-less dataset accepted")
	}
	malformed := &Dataset{Name: "x", Columns: []string{"a"}, Rows: [][]float64{{1, 2}}}
	if err := malformed.Validate(); err == nil {
		t.Error("ragged dataset accepted")
	}
	var buf bytes.Buffer
	if err := malformed.WriteCSV(&buf); err == nil {
		t.Error("WriteCSV of ragged dataset succeeded")
	}
	if err := malformed.WriteJSON(&buf); err == nil {
		t.Error("WriteJSON of ragged dataset succeeded")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"name":"", "columns":["a"]}`)); err == nil {
		t.Error("invalid dataset accepted")
	}
}

func TestDatasetColumn(t *testing.T) {
	d := &Dataset{Name: "demo", Columns: []string{"x", "y"}}
	_ = d.AddRow(1, 10)
	_ = d.AddRow(2, 20)
	ys, err := d.Column("y")
	if err != nil {
		t.Fatal(err)
	}
	if len(ys) != 2 || ys[0] != 10 || ys[1] != 20 {
		t.Errorf("Column(y) = %v", ys)
	}
	if _, err := d.Column("z"); err == nil {
		t.Error("missing column accepted")
	}
}
