package experiments

import (
	"math"
	"strings"
	"testing"

	"linesearch/internal/analysis"
	"linesearch/internal/numeric"
)

func TestIDsComplete(t *testing.T) {
	want := []string{
		"asymptotics", "betasweep", "fig1", "fig2", "fig3", "fig4",
		"fig5left", "fig5right", "fig6", "fig7", "kvisit", "lowerbound",
		"spacing", "table1", "turncost", "verify",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IDs()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nonsense"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestEveryExperimentRuns executes the full registry: non-empty report,
// valid datasets, matching ID.
func TestEveryExperimentRuns(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Run(id)
			if err != nil {
				t.Fatalf("Run(%s): %v", id, err)
			}
			if res.ID != id {
				t.Errorf("result ID %q != %q", res.ID, id)
			}
			if res.Title == "" {
				t.Error("empty title")
			}
			if len(strings.TrimSpace(res.Report)) == 0 {
				t.Error("empty report")
			}
			if len(res.Data) == 0 {
				t.Error("no datasets")
			}
			for _, d := range res.Data {
				if err := d.Validate(); err != nil {
					t.Errorf("dataset %s: %v", d.Name, err)
				}
				if len(d.Rows) == 0 {
					t.Errorf("dataset %s empty", d.Name)
				}
			}
		})
	}
}

func TestTable1Values(t *testing.T) {
	res, err := Run("table1")
	if err != nil {
		t.Fatal(err)
	}
	d := res.Data[0]
	if len(d.Rows) != 12 {
		t.Fatalf("table1 has %d rows, want 12", len(d.Rows))
	}
	crs, err := d.Column("cr")
	if err != nil {
		t.Fatal(err)
	}
	// First row is (2, 1) with CR 9; last is (41, 20) with CR ~3.24.
	if !numeric.AlmostEqual(crs[0], 9, 1e-9) {
		t.Errorf("row 0 CR = %v, want 9", crs[0])
	}
	if !numeric.AlmostEqual(crs[11], 3.24, 5e-3) {
		t.Errorf("row 11 CR = %v, want ~3.24", crs[11])
	}
	for _, want := range []string{"comp. ratio", "lower bound", "expansion"} {
		if !strings.Contains(res.Report, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestVerifyAgreement(t *testing.T) {
	res, err := Run("verify")
	if err != nil {
		t.Fatal(err)
	}
	diffs, err := res.Data[0].Column("absdiff")
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range diffs {
		if d > 1e-6 {
			t.Errorf("row %d: |analytic - empirical| = %v exceeds 1e-6", i, d)
		}
	}
}

func TestLowerBoundHolds(t *testing.T) {
	res, err := Run("lowerbound")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Report, "violated") {
		t.Errorf("lower bound violated:\n%s", res.Report)
	}
	alphas, err := res.Data[0].Column("alpha")
	if err != nil {
		t.Fatal(err)
	}
	ratios, err := res.Data[0].Column("ladder_ratio")
	if err != nil {
		t.Fatal(err)
	}
	for i := range alphas {
		if ratios[i] < alphas[i]-1e-9 {
			t.Errorf("row %d: ladder ratio %v below alpha %v", i, ratios[i], alphas[i])
		}
	}
}

func TestBetaSweepMinimisedAtOptimum(t *testing.T) {
	res, err := Run("betasweep")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Data {
		analytic, err := d.Column("analytic")
		if err != nil {
			t.Fatal(err)
		}
		// The sweep includes beta* at multiplier 1 (index 3); it must be
		// the unique minimum of the sampled values.
		best := analytic[3]
		for i, v := range analytic {
			if i != 3 && v <= best {
				t.Errorf("%s: CR at index %d (%v) not above optimum %v", d.Name, i, v, best)
			}
		}
	}
}

func TestFigure5LeftEndpoints(t *testing.T) {
	res, err := Run("fig5left")
	if err != nil {
		t.Fatal(err)
	}
	crs, err := res.Data[0].Column("cr")
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(crs[0], 5.233, 2e-3) {
		t.Errorf("CR at n=3: %v, want ~5.233", crs[0])
	}
	last := crs[len(crs)-1]
	if !(last > 3 && last < crs[0]) {
		t.Errorf("CR at n=20: %v, want in (3, %v)", last, crs[0])
	}
}

func TestFigure5RightEndpoints(t *testing.T) {
	res, err := Run("fig5right")
	if err != nil {
		t.Fatal(err)
	}
	crs, err := res.Data[0].Column("cr")
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(crs[0], 9, 1e-9) {
		t.Errorf("CR at a=1: %v, want 9", crs[0])
	}
	if !numeric.AlmostEqual(crs[len(crs)-1], 3, 1e-9) {
		t.Errorf("CR at a=2: %v, want 3", crs[len(crs)-1])
	}
}

func TestAsymptoticsSandwich(t *testing.T) {
	res, err := Run("asymptotics")
	if err != nil {
		t.Fatal(err)
	}
	d := res.Data[0]
	lower, err := d.Column("theorem2")
	if err != nil {
		t.Fatal(err)
	}
	exact, err := d.Column("exact")
	if err != nil {
		t.Fatal(err)
	}
	upper, err := d.Column("corollary1")
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if !(lower[i] <= exact[i]) {
			t.Errorf("row %d: lower %v above exact %v", i, lower[i], exact[i])
		}
		// Corollary 1 drops O(1/n) terms, so it only dominates for
		// larger n; the final rows must satisfy the sandwich strictly.
		if i >= 2 && exact[i] > upper[i] {
			t.Errorf("row %d: exact %v above Corollary 1 bound %v", i, exact[i], upper[i])
		}
	}
	if last := exact[len(exact)-1]; last-3 > 1e-3 {
		t.Errorf("exact CR %v not converging to 3", last)
	}
}

// TestSpacingAblation: the uniform schedule is never better than the
// proportional one at the same beta*, and is strictly worse whenever
// n > f+1 (for n = f+1 all robots must visit, so both degrade to 9).
func TestSpacingAblation(t *testing.T) {
	res, err := Run("spacing")
	if err != nil {
		t.Fatal(err)
	}
	d := res.Data[0]
	ns, err := d.Column("n")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := d.Column("f")
	if err != nil {
		t.Fatal(err)
	}
	prop, err := d.Column("proportional")
	if err != nil {
		t.Fatal(err)
	}
	uni, err := d.Column("uniform")
	if err != nil {
		t.Fatal(err)
	}
	for i := range prop {
		if uni[i] < prop[i]-1e-6 {
			t.Errorf("row %d: uniform %v beats proportional %v", i, uni[i], prop[i])
		}
		if int(ns[i]) > int(fs[i])+1 && uni[i] < prop[i]+0.5 {
			t.Errorf("(%v,%v): uniform %v not clearly worse than proportional %v", ns[i], fs[i], uni[i], prop[i])
		}
	}
}

// TestTurnCostExtension: at c = 0 the sweep reproduces Lemma 5, and the
// measured ratio at every beta equals base + 2c (the additive,
// beta-independent penalty the report explains).
func TestTurnCostExtension(t *testing.T) {
	res, err := Run("turncost")
	if err != nil {
		t.Fatal(err)
	}
	d := res.Data[0]
	betas, err := d.Column("beta")
	if err != nil {
		t.Fatal(err)
	}
	costs, err := d.Column("cost")
	if err != nil {
		t.Fatal(err)
	}
	crs, err := d.Column("cr")
	if err != nil {
		t.Fatal(err)
	}
	// Index the zero-cost baseline per beta.
	base := map[float64]float64{}
	for i := range betas {
		if costs[i] == 0 {
			base[betas[i]] = crs[i]
			// c = 0 must match Lemma 5 at that beta.
			want, err := analysis.ConeCR(betas[i], turnCostN, turnCostF)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(crs[i]-want) > 1e-6 {
				t.Errorf("beta=%v c=0: CR %v != Lemma 5 %v", betas[i], crs[i], want)
			}
		}
	}
	for i := range betas {
		want := base[betas[i]] + 2*costs[i]
		if math.Abs(crs[i]-want) > 1e-6 {
			t.Errorf("beta=%v c=%v: CR %v, want base+2c = %v", betas[i], costs[i], crs[i], want)
		}
	}
}

// TestKVisitGeneralisation: measured k-th-visitor ratios match the
// generalised Lemma 5 closed form at every k.
func TestKVisitGeneralisation(t *testing.T) {
	res, err := Run("kvisit")
	if err != nil {
		t.Fatal(err)
	}
	d := res.Data[0]
	analyticCol, err := d.Column("analytic")
	if err != nil {
		t.Fatal(err)
	}
	measured, err := d.Column("measured")
	if err != nil {
		t.Fatal(err)
	}
	if len(analyticCol) != 5 {
		t.Fatalf("expected 5 rows, got %d", len(analyticCol))
	}
	for i := range analyticCol {
		if math.Abs(analyticCol[i]-measured[i]) > 1e-6 {
			t.Errorf("k=%d: measured %v != analytic %v", i+1, measured[i], analyticCol[i])
		}
		if i > 0 && analyticCol[i] <= analyticCol[i-1] {
			t.Errorf("k=%d: ratio %v not increasing in k", i+1, analyticCol[i])
		}
	}
}

func TestOrdinal(t *testing.T) {
	tests := map[int]string{1: "1st", 2: "2nd", 3: "3rd", 4: "4th", 11: "11th", 12: "12th", 13: "13th", 21: "21st", 102: "102nd"}
	for k, want := range tests {
		if got := ordinal(k); got != want {
			t.Errorf("ordinal(%d) = %q, want %q", k, got, want)
		}
	}
}
