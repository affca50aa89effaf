package experiments

import (
	"fmt"
	"math"

	"linesearch/internal/adversary"
	"linesearch/internal/compiled"
	"linesearch/internal/geom"
	"linesearch/internal/numeric"
	"linesearch/internal/plot"
	"linesearch/internal/schedule"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
	"linesearch/internal/table"
	"linesearch/internal/trace"
	"linesearch/internal/trajectory"
)

func init() {
	register("fig1", Figure1)
	register("fig2", Figure2)
	register("fig3", Figure3)
	register("fig4", Figure4)
	register("fig6", Figure6)
	register("fig7", Figure7)
}

// clipSegments truncates the segment list at time tmax, interpolating
// the final partial segment, so figure windows aren't blown up by the
// exponentially long sweep that merely starts before the horizon.
func clipSegments(segs []geom.Segment, tmax float64) []geom.Segment {
	out := make([]geom.Segment, 0, len(segs))
	for _, s := range segs {
		if s.From.T >= tmax {
			break
		}
		if s.To.T > tmax {
			pos, err := s.PositionAt(tmax)
			if err == nil {
				s.To = geom.Point{X: pos, T: tmax}
			}
		}
		out = append(out, s)
	}
	return out
}

// pathDataset converts drawable paths into a columnar dataset with one
// (path, x, t) row per corner, so figures export cleanly to CSV.
func pathDataset(name string, paths []plot.Path) (*trace.Dataset, error) {
	d := &trace.Dataset{Name: name, Columns: []string{"path", "x", "t"}}
	for i, p := range paths {
		for _, pt := range p.Points {
			if err := d.AddRow(float64(i), pt.X, pt.T); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// Figure1 reproduces the paper's Figure 1: a general zig-zag strategy
// with four turning points, not confined to any cone.
func Figure1() (*Result, error) {
	legs := []geom.Segment{
		{From: geom.Point{X: 0, T: 0}, To: geom.Point{X: 1.2, T: 1.2}},
		{From: geom.Point{X: 1.2, T: 1.2}, To: geom.Point{X: -1.8, T: 4.2}},
		{From: geom.Point{X: -1.8, T: 4.2}, To: geom.Point{X: 2.6, T: 8.6}},
		{From: geom.Point{X: 2.6, T: 8.6}, To: geom.Point{X: -3.5, T: 14.7}},
	}
	tr, err := trajectory.New(legs, nil)
	if err != nil {
		return nil, err
	}
	paths := []plot.Path{plot.TrajectoryPath("general zig-zag", '*', tr.SegmentsUntil(15))}
	chart, err := plot.SpaceTime(paths, plot.Options{Title: "Figure 1: a general zig-zag strategy with turning points (x_i, t_i)"})
	if err != nil {
		return nil, err
	}
	data, err := pathDataset("fig1", paths)
	if err != nil {
		return nil, err
	}
	return &Result{ID: "fig1", Title: "Figure 1: general zig-zag strategy", Report: chart, Data: []*trace.Dataset{data}}, nil
}

// Figure2 reproduces Figure 2: a zig-zag movement defined by the cone
// C_beta and a starting boundary point.
func Figure2() (*Result, error) {
	const beta = 5.0 / 3
	cone := geom.MustCone(beta)
	tail, err := trajectory.NewZigZag(cone, cone.BoundaryPoint(-0.3))
	if err != nil {
		return nil, err
	}
	tr, err := trajectory.New(nil, tail)
	if err != nil {
		return nil, err
	}
	const tmax = 35
	paths := append(
		plot.ConePaths(cone, tmax),
		plot.TrajectoryPath("zig-zag in C_beta", '*', clipSegments(tr.SegmentsUntil(tmax), tmax)),
	)
	chart, err := plot.SpaceTime(paths, plot.Options{
		Title:  fmt.Sprintf("Figure 2: zig-zag defined by cone C_beta (beta = %.3g, kappa = %.3g)", beta, cone.ExpansionFactor()),
		Height: 24,
	})
	if err != nil {
		return nil, err
	}
	data, err := pathDataset("fig2", paths)
	if err != nil {
		return nil, err
	}
	return &Result{ID: "fig2", Title: "Figure 2: zig-zag strategy defined by a cone", Report: chart, Data: []*trace.Dataset{data}}, nil
}

// Figure3 reproduces Figure 3: the proportional schedule for n robots
// inside the cone, here realised with n = 4 (the schedule of A(4, 2)).
func Figure3() (*Result, error) {
	s, err := schedule.NewOptimal(4, 2)
	if err != nil {
		return nil, err
	}
	const tmax = 40
	paths := plot.ConePaths(s.Cone(), tmax)
	for i, tr := range s.Trajectories() {
		paths = append(paths, plot.TrajectoryPath(fmt.Sprintf("robot a_%d", i), byte('0'+i), clipSegments(tr.SegmentsUntil(tmax), tmax)))
	}
	chart, err := plot.SpaceTime(paths, plot.Options{
		Title:  fmt.Sprintf("Figure 3: proportional schedule S_beta(4), beta = %.3g, r = %.4g", s.Beta(), s.Ratio()),
		Height: 26,
	})
	if err != nil {
		return nil, err
	}
	data, err := pathDataset("fig3", paths)
	if err != nil {
		return nil, err
	}
	return &Result{ID: "fig3", Title: "Figure 3: proportional schedule for n robots in the cone", Report: chart, Data: []*trace.Dataset{data}}, nil
}

// Figure4 reproduces Figure 4: three robots, one of which may be
// faulty. The trajectories are drawn in space–time, and the "tower"
// profile — the worst-case detection ratio K(x) = T_2(x)/x — is plotted
// alongside, showing the sawtooth that peaks just past each turning
// point.
func Figure4() (*Result, error) {
	plan, err := sim.FromStrategy(strategy.Proportional{}, 3, 1)
	if err != nil {
		return nil, err
	}
	const tmax = 45
	s, err := schedule.NewOptimal(3, 1)
	if err != nil {
		return nil, err
	}
	paths := plot.ConePaths(s.Cone(), tmax)
	for i, tr := range plan.Trajectories() {
		paths = append(paths, plot.TrajectoryPath(fmt.Sprintf("robot a_%d", i), byte('0'+i), clipSegments(tr.SegmentsUntil(tmax), tmax)))
	}
	chart, err := plot.SpaceTime(paths, plot.Options{
		Title:  "Figure 4: searching by three robots, one of which is faulty",
		Height: 26,
	})
	if err != nil {
		return nil, err
	}

	// The tower region itself: the set of space–time points (x, t) at
	// which at least f+1 = 2 distinct robots have already visited x —
	// the bold outline of the paper's figure. The (f+1)-st first visit
	// is the kernel's search time.
	kernel, err := compiled.Compile(plan)
	if err != nil {
		return nil, err
	}
	tower, err := plot.Region(func(x, tt float64) bool {
		return kernel.SearchTime(x) <= tt
	}, -8, 8, 0, tmax, plot.Options{
		Title:  "tower: points already seen by >= f+1 = 2 robots",
		Height: 24,
	})
	if err != nil {
		return nil, err
	}

	// The tower profile: K(x) over two expansion periods.
	xs := numeric.Linspace(1, s.Ratio()*s.Ratio()*s.Ratio(), 400)
	ks := kernel.EvalMany(xs, nil)
	for i, x := range xs {
		ks[i] /= math.Abs(x)
	}
	profile, err := plot.Line(
		[]plot.Series{{Name: "K(x) = T_{f+1}(x) / x", X: xs, Y: ks}},
		plot.Options{Title: "tower profile: worst-case detection ratio (f+1 = 2 visits needed)", XLabel: "target x", YLabel: "K"},
	)
	if err != nil {
		return nil, err
	}

	data := &trace.Dataset{Name: "fig4_profile", Columns: []string{"x", "k"}}
	for i := range xs {
		if err := data.AddRow(xs[i], ks[i]); err != nil {
			return nil, err
		}
	}
	pd, err := pathDataset("fig4_paths", paths)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "fig4",
		Title:  "Figure 4: three robots, one faulty — trajectories, tower region and profile",
		Report: chart + "\n" + tower + "\n" + profile,
		Data:   []*trace.Dataset{pd, data},
	}, nil
}

// Figure6 reproduces Figure 6: a positive and a negative trajectory for
// a distance x (Lemma 6's case analysis), validated by the classifier.
func Figure6() (*Result, error) {
	const x = 2.0
	positive, err := trajectory.New([]geom.Segment{
		{From: geom.Point{X: 0, T: 0}, To: geom.Point{X: x, T: x}},
		{From: geom.Point{X: x, T: x}, To: geom.Point{X: -x, T: 3 * x}},
	}, nil)
	if err != nil {
		return nil, err
	}
	negative, err := trajectory.New([]geom.Segment{
		{From: geom.Point{X: 0, T: 0}, To: geom.Point{X: -x, T: x}},
		{From: geom.Point{X: -x, T: x}, To: geom.Point{X: x, T: 3 * x}},
	}, nil)
	if err != nil {
		return nil, err
	}
	for _, check := range []struct {
		tr   *trajectory.Trajectory
		want adversary.Class
	}{
		{positive, adversary.ClassPositive},
		{negative, adversary.ClassNegative},
	} {
		got, err := adversary.ClassifyTrajectory(check.tr, x)
		if err != nil {
			return nil, err
		}
		if got != check.want {
			return nil, fmt.Errorf("classifier disagrees with construction: got %v, want %v", got, check.want)
		}
	}
	paths := []plot.Path{
		plot.TrajectoryPath("positive trajectory (1, x, -1, -x)", 'P', positive.SegmentsUntil(3*x)),
		plot.TrajectoryPath("negative trajectory (-1, -x, 1, x)", 'N', negative.SegmentsUntil(3*x)),
	}
	chart, err := plot.SpaceTime(paths, plot.Options{Title: fmt.Sprintf("Figure 6: positive vs negative trajectory for x = %g", x)})
	if err != nil {
		return nil, err
	}
	data, err := pathDataset("fig6", paths)
	if err != nil {
		return nil, err
	}
	return &Result{ID: "fig6", Title: "Figure 6: positive and negative trajectories", Report: chart, Data: []*trace.Dataset{data}}, nil
}

// Figure7 reproduces Figure 7: the adversarial target ladder
// x_0 > x_1 > ... > x_{n-1} > 1 for n = 4.
func Figure7() (*Result, error) {
	const n = 4
	ladder, err := adversary.NewLadder(n)
	if err != nil {
		return nil, err
	}
	tb := table.New("i", "x_i", "x_i / x_{i+1}")
	data := &trace.Dataset{Name: "fig7", Columns: []string{"i", "x"}}
	for i, x := range ladder.Points {
		ratio := "-"
		if i+1 < len(ladder.Points) {
			ratio = fmt.Sprintf("%.4f", x/ladder.Points[i+1])
		}
		tb.AddRow(fmt.Sprintf("%d", i), fmt.Sprintf("%.4f", x), ratio)
		if err := data.AddRow(float64(i), x); err != nil {
			return nil, err
		}
	}
	// A number-line rendering: each target +-x_i and +-1 as a point.
	var paths []plot.Path
	marks := []byte{'0', '1', '2', '3'}
	for i, x := range ladder.Points {
		paths = append(paths, plot.Path{
			Name:   fmt.Sprintf("x_%d = %.3f", i, x),
			Marker: marks[i%len(marks)],
			Points: []geom.Point{{X: x, T: 0}, {X: -x, T: 0}},
		})
	}
	paths = append(paths, plot.Path{Name: "+-1", Marker: '|', Points: []geom.Point{{X: 1, T: 0}, {X: -1, T: 0}}})
	chart, err := plot.SpaceTime(paths, plot.Options{
		Title:  fmt.Sprintf("Figure 7: adversarial placements for n = %d (alpha = %.4f)", n, ladder.Alpha),
		Height: 5,
	})
	if err != nil {
		return nil, err
	}
	report := tb.Render() + "\n" + chart +
		"\nconsecutive ratio (alpha-1)/2 per Equation 16; the adversary places the\ntarget wherever fewer than f+1 robots arrive within alpha times the distance.\n"
	return &Result{ID: "fig7", Title: "Figure 7: the adversarial target ladder", Report: report, Data: []*trace.Dataset{data}}, nil
}
