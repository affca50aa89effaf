package sweep

import (
	"context"
	"errors"
	"math"

	"linesearch/internal/analysis"
	"linesearch/internal/compiled"
	"linesearch/internal/fault"
	"linesearch/internal/faultpoint"
	"linesearch/internal/strategy"
	"linesearch/internal/telemetry"
)

// fpSweepEval is the fault point at the head of every cell evaluation;
// chaos schedules arm it with error, latency and panic rules to prove
// the retry and quarantine machinery out.
const fpSweepEval = "sweep.eval"

// Cell is one completed grid cell. Cells that fail (an infeasible pair,
// an out-of-regime strategy) carry Err and nil measurements; they count
// toward progress and are collected without failing the job. Float
// fields that can be undefined are pointers so checkpoints and results
// stay valid JSON (encoding/json has no NaN).
type Cell struct {
	Index      int    `json:"index"`
	N          int    `json:"n"`
	F          int    `json:"f"`
	Strategy   string `json:"strategy"`
	StrategyID int    `json:"strategy_id"`
	// Resolved is the concrete strategy a cell ran ("auto" resolves per
	// pair); equal to Strategy otherwise.
	Resolved string `json:"resolved,omitempty"`
	// Beta is the cone slope of the realised schedule when it has one.
	Beta *float64 `json:"beta,omitempty"`
	// EmpiricalCR is the measured competitive ratio sup SearchTime(x)/|x|.
	EmpiricalCR *float64 `json:"empirical_cr,omitempty"`
	// AnalyticCR is the closed-form competitive ratio when one is known.
	AnalyticCR *float64 `json:"analytic_cr,omitempty"`
	// AbsError is |EmpiricalCR - AnalyticCR| when both are defined.
	AbsError *float64 `json:"abs_error,omitempty"`
	// ArgX is a target position witnessing the empirical supremum.
	ArgX float64 `json:"arg_x,omitempty"`
	// Candidates is the number of target positions evaluated.
	Candidates int `json:"candidates,omitempty"`
	// FaultModel is the fault-model axis entry the cell ran under and
	// ModelID its axis index; both are omitted for crash-only specs
	// (which predate the axis), keeping their datasets byte-identical.
	FaultModel string `json:"fault_model,omitempty"`
	ModelID    int    `json:"model_id,omitempty"`
	// DetectionRank is the distinct-visitor rank the realised plan's
	// detection rule fires at (f+votes under a Byzantine model); 0 for
	// crash-only specs.
	DetectionRank int `json:"detection_rank,omitempty"`
	// P/PID echo the p-axis entry the cell ran under; Speeds/SpeedID the
	// speed-vector entry. All omitted for specs predating the axes,
	// keeping their datasets byte-identical.
	P       *float64  `json:"p,omitempty"`
	PID     int       `json:"p_id,omitempty"`
	Speeds  []float64 `json:"speeds,omitempty"`
	SpeedID int       `json:"speed_id,omitempty"`
	// ExpectedRatio is the stochastic objective: sup E[T(x)]/x over the
	// candidate targets, evaluated through the kernel's exact
	// expected-time series with the worst-case crash assignment per
	// target. ExpectedArgX
	// witnesses the supremum; Diverged marks cells whose expectation is
	// infinite somewhere in the target range.
	ExpectedRatio *float64 `json:"expected_ratio,omitempty"`
	ExpectedArgX  float64  `json:"expected_arg_x,omitempty"`
	Diverged      bool     `json:"diverged,omitempty"`
	// Err is the cell's failure message, empty on success.
	Err string `json:"error,omitempty"`
	// Attempts is how many evaluations this cell took (1 on a clean
	// first pass; more after transient-failure retries).
	Attempts int `json:"attempts,omitempty"`
	// Quarantined marks a cell that kept failing transiently until the
	// retry budget ran out. Quarantined cells fail the job loudly and
	// are retried from scratch on resume.
	Quarantined bool `json:"quarantined,omitempty"`

	// transient marks the failure as retryable; cancelled marks it as
	// an artifact of job shutdown. Neither is persisted: a cancelled
	// cell is never recorded, and transiency is re-derived per run.
	transient bool
	cancelled bool
}

// OK reports whether the cell produced a measurement.
func (c Cell) OK() bool { return c.Err == "" }

// isTransient reports whether err advertises itself as retryable via
// the Transient() bool contract (injected faults, and any future
// evaluator error that opts in). Cancellation is never transient: the
// job is shutting down, not failing.
func isTransient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// isCancelled reports whether err is a shutdown artifact.
func isCancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// EvalFunc computes one grid cell. The production evaluator is
// EvalCell; tests substitute instrumented ones. Implementations must be
// safe for concurrent use and should return quickly once ctx is
// cancelled (the engine additionally stops dispatching new cells).
type EvalFunc func(ctx context.Context, p CellParams) Cell

// failedCell returns the error-carrying cell for p, classified for the
// retry layer.
func failedCell(p CellParams, err error) Cell {
	c := Cell{Index: p.Index, N: p.N, F: p.F, Strategy: p.Strategy,
		StrategyID: p.StrategyID, FaultModel: p.FaultModel, ModelID: p.ModelID,
		Err:       err.Error(),
		transient: isTransient(err), cancelled: isCancelled(err)}
	c.stampAxes(p)
	return c
}

// stampAxes copies the stochastic-axis coordinates onto the cell; a
// no-op for cells on the implied deterministic axes.
func (c *Cell) stampAxes(p CellParams) {
	if p.HasP {
		v := p.P
		c.P = &v
		c.PID = p.PID
	}
	if len(p.Speeds) > 0 {
		c.Speeds = p.Speeds
		c.SpeedID = p.SpeedID
	}
}

// EvalCell is the production evaluator: resolve the strategy, build
// its kernel, measure the empirical competitive ratio over the spec's
// target range through it (no per-target allocation), and cross-check
// against the strategy's closed form. A cell with an expected-time part
// sums the series on the same kernel.
func EvalCell(ctx context.Context, p CellParams) Cell {
	if err := faultpoint.Hit(fpSweepEval); err != nil {
		return failedCell(p, err)
	}
	_, planSpan := telemetry.StartSpan(ctx, "cell.plan")
	st, err := resolveStrategy(ComposeStrategy(p.FaultModel, p.Strategy), p.N, p.F)
	if err != nil {
		planSpan.End()
		return failedCell(p, err)
	}
	planSpan.SetStr("resolved", st.Name())
	planSpan.End()
	_, compileSpan := telemetry.StartSpan(ctx, "cell.compile")
	kernel, err := compiled.FromStrategy(st, p.N, p.F)
	compileSpan.End()
	if err != nil {
		return failedCell(p, err)
	}
	if ctx.Err() != nil {
		return failedCell(p, ctx.Err())
	}
	_, crSpan := telemetry.StartSpan(ctx, "cell.cr")
	crSpan.SetInt("grid_points", int64(p.GridPoints))
	res, err := kernel.CR(compiled.CROptions{
		XMin:       p.XMin,
		XMax:       p.XMax,
		GridPoints: p.GridPoints,
		Eps:        p.Eps,
		// Cells are the unit of parallelism; one worker per cell.
		Parallelism: 1,
	})
	crSpan.End()
	if err != nil {
		return failedCell(p, err)
	}

	cell := Cell{
		Index:      p.Index,
		N:          p.N,
		F:          p.F,
		Strategy:   p.Strategy,
		StrategyID: p.StrategyID,
		FaultModel: p.FaultModel,
		ModelID:    p.ModelID,
		Resolved:   st.Name(),
		Beta:       coneSlope(st, p.N, p.F),
		ArgX:       res.ArgX,
		Candidates: res.Candidates,
	}
	if p.FaultModel != "" {
		cell.DetectionRank = kernel.Model().DetectionRank()
	}
	if !math.IsNaN(res.Sup) && !math.IsInf(res.Sup, 0) {
		cell.EmpiricalCR = &res.Sup
	}
	if cr, ok := st.AnalyticCR(p.N, p.F); ok {
		cell.AnalyticCR = &cr
		if cell.EmpiricalCR != nil {
			diff := math.Abs(*cell.EmpiricalCR - cr)
			cell.AbsError = &diff
		}
	}
	cell.stampAxes(p)
	if p.HasP || len(p.Speeds) > 0 || kernel.Model().Kind == fault.ModelPFaulty {
		if err := evalExpected(ctx, kernel, p, &cell); err != nil {
			return failedCell(p, err)
		}
	}
	return cell
}

// evalExpected adds the stochastic objective to a cell: the supremum of
// E[T(x)]/|x| over the candidate targets, each evaluated exactly as
// the public API's ExpectedSearchTime evaluates it
// (compiled.Plan.ExpectedSearchTime: the f earliest arrivals at the
// cell's speeds crash, every other robot misses each visit with the
// cell's p).
func evalExpected(ctx context.Context, plan *compiled.Plan, p CellParams, cell *Cell) error {
	_, span := telemetry.StartSpan(ctx, "cell.expected")
	defer span.End()
	miss := missProbability(plan, p)
	span.SetFloat("p", miss)
	targets := expectedTargets(plan, p)
	span.SetInt("targets", int64(len(targets)))
	sup, argx, finite := math.Inf(-1), 0.0, 0
	for _, x := range targets {
		et, err := plan.ExpectedSearchTime(x, miss, p.Speeds)
		if err != nil {
			return err
		}
		if math.IsInf(et, 1) {
			cell.Diverged = true
			continue
		}
		finite++
		if r := et / math.Abs(x); r > sup {
			sup, argx = r, x
		}
	}
	if finite > 0 {
		cell.ExpectedRatio = &sup
		cell.ExpectedArgX = argx
	}
	return nil
}

// missProbability returns a cell's per-visit miss probability: the
// p-axis entry when the spec has one, else the plan's own p under the
// pfaulty fault model, else 0.
func missProbability(plan *compiled.Plan, p CellParams) float64 {
	if p.HasP {
		return p.P
	}
	if m := plan.Model(); m.Kind == fault.ModelPFaulty {
		return m.P
	}
	return 0
}

// expectedTargets returns the stochastic objective's candidate grid:
// GridPoints log-spaced targets per half-line, skipping half-lines the
// plan never covers (the pfaulty family searches only to the right).
func expectedTargets(plan *compiled.Plan, p CellParams) []float64 {
	logSpan := math.Log(p.XMax / p.XMin)
	var out []float64
	for _, sign := range []float64{1, -1} {
		if len(plan.Arrivals(sign*p.XMin, nil)) == 0 {
			continue
		}
		for i := 0; i < p.GridPoints; i++ {
			frac := float64(i) / float64(p.GridPoints-1)
			out = append(out, sign*p.XMin*math.Exp(frac*logSpan))
		}
	}
	return out
}

// resolveStrategy turns a spec strategy name into a concrete Strategy
// for the pair (n, f).
func resolveStrategy(name string, n, f int) (strategy.Strategy, error) {
	if name == StrategyAuto {
		return strategy.ForPair(n, f)
	}
	return strategy.Parse(name)
}

// coneSlope returns the cone slope of the realised schedule when the
// strategy family defines one: the explicit beta of cone/uniform
// schedules, beta* for A(n, f), 3 for the doubling walk.
func coneSlope(st strategy.Strategy, n, f int) *float64 {
	switch s := st.(type) {
	case strategy.Cone:
		return &s.Beta
	case strategy.UniformCone:
		return &s.Beta
	case strategy.Proportional:
		if beta, err := analysis.OptimalBeta(n, f); err == nil {
			return &beta
		}
	case strategy.Doubling:
		beta := 3.0
		return &beta
	case strategy.Byzantine:
		// The realised schedule is the base strategy at the effective
		// crash budget f' = rank - 1.
		m := s.FaultModel(n, f)
		if m.Validate(n) != nil {
			return nil
		}
		base := s.Base
		if base == nil {
			b, err := strategy.ForPair(n, m.DetectionRank()-1)
			if err != nil {
				return nil
			}
			base = b
		}
		return coneSlope(base, n, m.DetectionRank()-1)
	}
	return nil
}
