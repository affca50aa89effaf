package sweep

import (
	"context"
	"fmt"
	"time"

	"linesearch/internal/telemetry/journal"
)

// evalResilient drives one cell through the retry policy: transient
// failures (injected faults, evaluator panics) are retried with capped
// exponential backoff plus jitter, up to the manager's maxAttempts total
// attempts; a cell that exhausts the budget is quarantined, which
// fails the job loudly at finalize. Permanent failures (infeasible
// pairs, out-of-regime strategies) are data and return immediately;
// cancellation stops retrying without recording anything.
//
// Each cell is offered to the manager's tracer as its own root trace
// ("sweep.cell") so slow or retried cells show up on /debug/traces
// next to request traces; the latency histogram is unconditional.
func (m *Manager) evalResilient(ctx context.Context, p CellParams) Cell {
	start := time.Now()
	ctx, span := m.cfg.Tracer.StartRequest(ctx, "sweep.cell", "")
	if span != nil {
		span.SetInt("cell", int64(p.Index))
		span.SetInt("n", int64(p.N))
		span.SetInt("f", int64(p.F))
		span.SetStr("strategy", p.Strategy)
	}
	cell := m.evalAttempts(ctx, p)
	if span != nil {
		span.SetInt("attempts", int64(cell.Attempts))
		span.SetBool("quarantined", cell.Quarantined)
		if cell.Err != "" {
			span.SetStr("error", cell.Err)
		}
		span.End()
	}
	m.cellLatency.Observe(time.Since(start))
	return cell
}

// evalAttempts is the retry loop proper.
func (m *Manager) evalAttempts(ctx context.Context, p CellParams) Cell {
	var cell Cell
	for attempt := 1; ; attempt++ {
		cell = m.evalSafely(ctx, p)
		cell.Attempts = attempt
		if cell.OK() || cell.cancelled || !cell.transient || attempt >= m.retry.maxAttempts {
			break
		}
		m.cellRetries.Add(1)
		m.cfg.Logger.Warn("sweep cell retry", "cell", p.Index,
			"attempt", attempt, "of", m.retry.maxAttempts, "err", cell.Err)
		select {
		case <-time.After(m.backoff(attempt)):
		case <-ctx.Done():
			cell.cancelled = true
		}
		if cell.cancelled {
			break
		}
	}
	if !cell.OK() && cell.transient && !cell.cancelled {
		// The retry budget is spent: quarantine, the infrastructure
		// analogue of declaring a robot faulty.
		cell.Quarantined = true
		m.cellsQuarantined.Add(1)
		m.cfg.Logger.Error("sweep cell quarantined", "cell", p.Index,
			"attempts", cell.Attempts, "err", cell.Err)
		m.cfg.Journal.Record(ctx, journal.CellQuarantine, "",
			fmt.Sprintf("cell %d after %d attempts: %s", p.Index, cell.Attempts, cell.Err))
	}
	return cell
}

// evalSafely runs the evaluator, converting a panic into a transient
// cell error so one pathological (or fault-injected) cell cannot take
// down the daemon but still gets its retries.
func (m *Manager) evalSafely(ctx context.Context, p CellParams) (cell Cell) {
	defer func() {
		if v := recover(); v != nil {
			m.cfg.Logger.Error("sweep cell panicked", "cell", p.Index, "panic", v)
			cell = failedCell(p, fmt.Errorf("panic: %v", v))
			cell.transient = true
		}
	}()
	return m.cfg.Eval(ctx, p)
}

// backoff returns the delay before retry number attempt (1-based):
// capped exponential growth from the base delay with jitter drawn
// uniformly from the upper half of the window, so synchronized
// failures don't retry in lockstep.
func (m *Manager) backoff(attempt int) time.Duration {
	d := m.retry.baseDelay
	for i := 1; i < attempt && d < m.retry.maxDelay; i++ {
		d *= 2
	}
	if d > m.retry.maxDelay {
		d = m.retry.maxDelay
	}
	m.rngMu.Lock()
	j := m.rng.Int63n(int64(d)/2 + 1)
	m.rngMu.Unlock()
	return d/2 + time.Duration(j)
}
