// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the repository's own validation and ablation
// experiments. Each experiment returns a Result holding a human-readable
// report (text tables and ASCII figures) and machine-readable datasets;
// cmd/paper prints and exports them, and the root benchmarks time them.
//
// Experiment index (see DESIGN.md for the full mapping):
//
//	table1      Table 1 — bounds and expansion factors for 12 (n, f) pairs
//	fig5left    Figure 5 (left) — CR of A(2f+1, f) for n = 3..20
//	fig5right   Figure 5 (right) — asymptotic CR over a = n/f in (1, 2)
//	lowerbound  Theorem 2 roots and the adversarial ladder game
//	asymptotics Corollary 1 / Corollary 2 sandwich around the exact CR
//	verify      empirical (simulated) CR vs the closed forms
//	betasweep   CR as a function of beta, minimised at beta*
//	fig1..fig4, fig6, fig7  the paper's illustrative diagrams
package experiments

import (
	"fmt"
	"sort"

	"linesearch/internal/trace"
)

// Result is the output of one experiment.
type Result struct {
	// ID is the experiment's stable identifier (e.g. "table1").
	ID string
	// Title is a one-line description.
	Title string
	// Report is the human-readable rendering: tables and ASCII figures.
	Report string
	// Data holds the experiment's machine-readable series.
	Data []*trace.Dataset
}

// Runner produces a Result.
type Runner func() (*Result, error)

// registry maps experiment IDs to runners, populated by sibling files.
var registry = map[string]Runner{}

// register adds a runner; duplicate IDs are a programming error.
func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic(fmt.Sprintf("experiments: duplicate id %q", id))
	}
	registry[id] = r
}

// IDs returns the registered experiment identifiers, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes the experiment with the given ID.
func Run(id string) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	res, err := r()
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	for _, d := range res.Data {
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: %s produced an invalid dataset: %w", id, err)
		}
	}
	return res, nil
}
