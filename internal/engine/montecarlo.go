package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"linesearch/internal/numeric"
	"linesearch/internal/telemetry"
)

// MCConfig configures a Monte-Carlo estimate of the detection-time
// distribution for a fixed fleet and a fixed target: Trials independent
// engine runs, each with its own split of the seed's root stream.
type MCConfig struct {
	// X is the target position.
	X float64
	// Trials is the number of independent runs. Default 1000.
	Trials int
	// Seed makes the estimate reproducible; the zero seed is valid.
	// Trial i draws from the stream Split(i) of the root, so the result
	// is a pure function of (fleet, options, X, Seed, Trials) —
	// Parallelism never changes a single bit of it.
	Seed int64
	// Parallelism is the number of worker goroutines (each with its own
	// Engine). Default GOMAXPROCS.
	Parallelism int
}

func (c MCConfig) withDefaults() MCConfig {
	if c.Trials == 0 {
		c.Trials = 1000
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

func (c MCConfig) validate() error {
	if c.Trials < 1 {
		return fmt.Errorf("engine: MCConfig.Trials must be positive, got %d", c.Trials)
	}
	if c.Parallelism < 1 {
		return fmt.Errorf("engine: MCConfig.Parallelism must be >= 1, got %d", c.Parallelism)
	}
	if math.IsNaN(c.X) || math.IsInf(c.X, 0) {
		return fmt.Errorf("engine: MCConfig.X must be finite, got %g", c.X)
	}
	return nil
}

// MCResult summarises a Monte-Carlo detection-time estimate. A trial
// that never detects (starved or truncated) contributes +Inf, making
// Mean +Inf — divergence is loud, not averaged away.
type MCResult struct {
	Trials int
	// Mean is the empirical mean detection time; StdErr its standard
	// error (NaN when any trial was +Inf or Trials == 1).
	Mean   float64
	StdErr float64
	Min    float64
	Max    float64
	// Undetected counts trials that starved; Truncated counts trials
	// stopped by the event cap. Events totals dispatched events.
	Undetected int
	Truncated  int
	Events     int64
}

// MonteCarlo estimates the detection-time distribution of a target at
// cfg.X under robots/opts. Trials are statically chunked over workers
// and every trial's stream is derived from (Seed, trial index) alone,
// so the returned statistics are bit-identical for every Parallelism.
// When ctx carries a telemetry trace, the run is recorded as an
// "engine.mc" span annotated with trial and event counts.
func MonteCarlo(ctx context.Context, robots []RobotSpec, opts Options, cfg MCConfig) (res MCResult, err error) {
	cfg = cfg.withDefaults()
	_, span := telemetry.StartSpan(ctx, "engine.mc")
	defer func() {
		span.SetInt("trials", int64(cfg.Trials))
		span.SetInt("events", res.Events)
		span.SetInt("undetected", int64(res.Undetected))
		span.End()
	}()
	if err := cfg.validate(); err != nil {
		return MCResult{}, err
	}
	// One Engine per worker, built up front so a construction error
	// surfaces before any trial runs.
	workers := min(cfg.Parallelism, cfg.Trials)
	engines := make([]*Engine, workers)
	for w := range engines {
		if engines[w], err = New(robots, opts); err != nil {
			return MCResult{}, err
		}
	}

	root := NewStream(cfg.Seed)
	times := make([]float64, cfg.Trials)
	counts := make([]struct {
		undetected, truncated int
		events                int64
	}, workers)
	err = numeric.Chunked(cfg.Trials, workers, func(w, i int) error {
		res, err := engines[w].Search(cfg.X, root.Split(uint64(i)))
		if err != nil {
			return err
		}
		times[i] = res.DetectTime
		counts[w].events += int64(res.Events)
		if !res.Detected {
			counts[w].undetected++
		}
		if res.Truncated {
			counts[w].truncated++
		}
		return nil
	})
	if err != nil {
		return MCResult{}, err
	}

	res = MCResult{Trials: cfg.Trials, Min: math.Inf(1), Max: math.Inf(-1)}
	for _, c := range counts {
		res.Undetected += c.undetected
		res.Truncated += c.truncated
		res.Events += c.events
	}
	for _, t := range times {
		res.Min = math.Min(res.Min, t)
		res.Max = math.Max(res.Max, t)
	}
	if res.Undetected > 0 || res.Truncated > 0 {
		// Any +Inf trial makes the empirical mean infinite; compensated
		// summation over infinities would only manufacture NaNs.
		res.Mean = math.Inf(1)
		res.StdErr = math.NaN()
		return res, nil
	}
	var sum numeric.KahanSum
	for _, t := range times {
		sum.Add(t)
	}
	res.Mean = sum.Value() / float64(cfg.Trials)
	if cfg.Trials == 1 {
		res.StdErr = math.NaN()
		return res, nil
	}
	var sq numeric.KahanSum
	for _, t := range times {
		d := t - res.Mean
		sq.Add(d * d)
	}
	res.StdErr = math.Sqrt(sq.Value() / float64(cfg.Trials-1) / float64(cfg.Trials))
	return res, nil
}
