// Package trace exports experiment data: the CSV / JSON encoders for
// the series every `cmd/paper` subcommand can emit alongside its ASCII
// rendering.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Dataset is a named columnar table of float64 series, the common
// currency of the experiment exporters.
type Dataset struct {
	// Name identifies the experiment (e.g. "fig5left").
	Name string `json:"name"`
	// Columns are the column headers, parallel to each row's cells.
	Columns []string `json:"columns"`
	// Rows holds the data; every row must have len(Columns) cells.
	Rows [][]float64 `json:"rows"`
}

// Validate checks the dataset's shape.
func (d *Dataset) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("trace: dataset without a name")
	}
	if len(d.Columns) == 0 {
		return fmt.Errorf("trace: dataset %q has no columns", d.Name)
	}
	for i, row := range d.Rows {
		if len(row) != len(d.Columns) {
			return fmt.Errorf("trace: dataset %q row %d has %d cells for %d columns", d.Name, i, len(row), len(d.Columns))
		}
	}
	return nil
}

// AddRow appends one row; the cell count must match the columns.
func (d *Dataset) AddRow(cells ...float64) error {
	if len(cells) != len(d.Columns) {
		return fmt.Errorf("trace: dataset %q: %d cells for %d columns", d.Name, len(cells), len(d.Columns))
	}
	d.Rows = append(d.Rows, cells)
	return nil
}

// WriteCSV encodes the dataset as CSV with a header row.
func (d *Dataset) WriteCSV(w io.Writer) error {
	if err := d.Validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(d.Columns); err != nil {
		return fmt.Errorf("trace: csv header: %w", err)
	}
	record := make([]string, len(d.Columns))
	for _, row := range d.Rows {
		for i, v := range row {
			record[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(record); err != nil {
			return fmt.Errorf("trace: csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// jsonDataset mirrors Dataset with nullable cells, because JSON has no
// representation for NaN or infinities (used for "blank" cells such as
// the expansion factor of trivial-regime rows).
type jsonDataset struct {
	Name    string       `json:"name"`
	Columns []string     `json:"columns"`
	Rows    [][]*float64 `json:"rows"`
}

// WriteJSON encodes the dataset as indented JSON, mapping non-finite
// cells to null.
func (d *Dataset) WriteJSON(w io.Writer) error {
	if err := d.Validate(); err != nil {
		return err
	}
	jd := jsonDataset{Name: d.Name, Columns: d.Columns, Rows: make([][]*float64, len(d.Rows))}
	for i, row := range d.Rows {
		cells := make([]*float64, len(row))
		for j := range row {
			if v := row[j]; !math.IsNaN(v) && !math.IsInf(v, 0) {
				cells[j] = &row[j]
			}
		}
		jd.Rows[i] = cells
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jd)
}

// ReadJSON decodes a dataset (null cells become NaN) and validates its
// shape.
func ReadJSON(r io.Reader) (*Dataset, error) {
	var jd jsonDataset
	if err := json.NewDecoder(r).Decode(&jd); err != nil {
		return nil, fmt.Errorf("trace: decode dataset: %w", err)
	}
	d := &Dataset{Name: jd.Name, Columns: jd.Columns, Rows: make([][]float64, len(jd.Rows))}
	for i, row := range jd.Rows {
		cells := make([]float64, len(row))
		for j, v := range row {
			if v == nil {
				cells[j] = math.NaN()
			} else {
				cells[j] = *v
			}
		}
		d.Rows[i] = cells
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Column returns the values of the named column.
func (d *Dataset) Column(name string) ([]float64, error) {
	idx := -1
	for i, c := range d.Columns {
		if c == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("trace: dataset %q has no column %q", d.Name, name)
	}
	out := make([]float64, len(d.Rows))
	for i, row := range d.Rows {
		out[i] = row[idx]
	}
	return out, nil
}
