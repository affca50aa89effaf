package linesearch

import "linesearch/internal/geom"

// SimTurningPoints is the oracle of TurningPoints and WalkTurningPoints:
// the walk over every trajectory's motion segments in the plan's exact
// engine (internal/sim), listed as the first segment's start and every
// segment's end, or the start alone when no segment starts by tmax.
func (s *Searcher) SimTurningPoints(tmax float64) [][]Point {
	out := make([][]Point, s.n)
	for i, tr := range s.simPlan().Trajectories() {
		segs := tr.SegmentsUntil(tmax)
		if len(segs) == 0 {
			// The start: the first leg's, or without legs the tail's
			// anchor.
			var start geom.Point
			if legs := tr.Legs(); len(legs) > 0 {
				start = legs[0].From
			} else {
				start = tr.TailOf().Anchor()
			}
			out[i] = []Point{{T: start.T, X: start.X}}
			continue
		}
		pts := make([]Point, 0, len(segs)+1)
		pts = append(pts, Point{T: segs[0].From.T, X: segs[0].From.X})
		for _, seg := range segs {
			pts = append(pts, Point{T: seg.To.T, X: seg.To.X})
		}
		out[i] = pts
	}
	return out
}
