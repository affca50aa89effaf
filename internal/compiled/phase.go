package compiled

import (
	"math"
	"sync/atomic"

	"linesearch/internal/trajectory"
)

// The fleet's self-similarity (Lemma 4, generalised to every target).
//
// In a proportional schedule every robot zig-zags in one cone C_beta,
// and robot i's positive turning points are robot 0's scaled by r^i
// (up to whole zig-zag periods kappa^2), with r = kappa^(2/n). Scaling
// space and time by sigma = r maps robot i onto robot i+1 and robot n-1
// onto robot 0, so the fleet's k-th first visit obeys
// T_k(sigma*x) = sigma*T_k(x) on |x| >= the anchors, and which robot is
// the k-th visitor of x repeats, shifted by one robot, every period of
// ln sigma in ln|x|. Inside a period every robot's first visit is
// |x| + c_i with c_i constant between two consecutive fleet turning
// points on x's side, of which a period holds exactly one per side.
//
// A phaseTable records, for one rank k and each side, three regions of
// the period: below that side's turning point, a narrow zone around it,
// and above it. Each region lists the robots that certainly visit
// before the k-th visitor (their count) and the few candidates that
// might be the k-th. A query reduces x to its period and phase, picks
// the region, evaluates only the candidates with the scan's own
// firstVisit arithmetic and selects among them, so its answer is
// bit-identical to the scan's whenever the region's certificate holds.

const (
	// minTableRobots is the smallest fleet that uses a phase table. A
	// table query costs one logarithm and one candidate's binary search,
	// 50-80 ns on a 2-core x86 VM whatever n; the scan costs about 25 ns
	// per robot. At n = 3 (A(3,1)) the two tie at ~80 ns; from n = 4 on
	// the table is faster (n = 5: ~68 against ~125 ns).
	minTableRobots = 4
	// tableBuildScans is the build cost of a table in scanned targets:
	// it evaluates every robot at two points of each of the two regions
	// of both sides. A rank's table is built once the plan has scanned
	// that many targets at that rank, so a plan's first queries (and
	// every plan asked only a few times) never pay for one.
	tableBuildScans = 8
	// maxCandidates bounds the robots a region may leave undecided; a
	// rank whose table would need more keeps the scan.
	maxCandidates = 8
	// symTol is the relative tolerance of the structural check: each
	// robot's turning points must sit within it of the ideal
	// proportional phases. The schedule's own rounding is at most 2e-13
	// up to n = 10001 (4e-12 at n = 100001).
	symTol = 1e-10
	// certTol is the relative margin each robot's first-visit delay
	// keeps in a region's certificate, covering corner rounding at
	// every scale, the phase reduction and the structural slack above.
	certTol = 1e-8
	// zoneTol is the half-width, in ln|x|, of the zone around a fleet
	// turning point in which a target may sit on either side of it.
	zoneTol = 1e-8
)

// symmetry is a plan's detected self-similarity. The zero value (ok
// false) means the plan has none and every query scans.
type symmetry struct {
	ok bool
	// lo and hi bound |x| where the table answers: at or beyond every
	// robot's anchor, and inside every robot's compiled envelope.
	lo, hi float64
	// logSigma is ln sigma, the period in ln|x|; sigma is exp(logSigma).
	logSigma, invLogSigma float64
	// logBase is ln of the period's lower edge; phases are measured in
	// periods from it. It sits a quarter period past one of robot 0's
	// positive turning points, so every fleet turning point is at least
	// a quarter period from an edge.
	logBase float64
	// turn is, per side (0: x > 0, 1: x < 0), the phase in (0, 1) of
	// the side's one fleet turning point in a period.
	turn [2]float64
	// zone is zoneTol in periods.
	zone float64
}

// detectSymmetry reports whether robots form a proportional fleet:
// every robot has a zig-zag tail in one cone, its start-up legs stay
// strictly inside its anchor's distance, and its first positive turning
// point u_i satisfies ln u_i = ln u_0 + i*ln(kappa^(2/n)) modulo whole
// periods 2*ln(kappa), to symTol. It allocates nothing.
func detectSymmetry(robots []robot) symmetry {
	n := len(robots)
	if n < 2 {
		return symmetry{}
	}
	var kappa, logKappa, logSigma, logU0, lo float64
	hi := math.Inf(1)
	for i := range robots {
		ct := &robots[i]
		z, ok := ct.tail.(*trajectory.ZigZag)
		if !ok {
			return symmetry{}
		}
		k := z.Cone().ExpansionFactor()
		a := z.Anchor()
		if i == 0 {
			kappa, logKappa = k, math.Log(k)
			logSigma = 2 * logKappa / float64(n)
		}
		if k != kappa || !(logSigma > 0) || math.IsInf(logKappa, 0) {
			return symmetry{}
		}
		// Before the anchor the robot must stay strictly closer to the
		// origin, so every |x| >= |anchor| is first reached on the
		// zig-zag. Only stored corners can precede it: turns follow it.
		for j := range ct.stored() {
			if x, t := ct.corner(j); t < a.T && !(math.Abs(x) < math.Abs(a.X)) {
				return symmetry{}
			}
		}
		if _, t := ct.corner(ct.count() - 1); !(math.Abs(a.X) > 1e-290) || math.IsInf(t, 0) {
			return symmetry{}
		}
		lo = max(lo, math.Abs(a.X))
		hi = min(hi, ct.hi, -ct.lo)
		u := a.X // first positive turning point
		if u < 0 {
			u = -kappa * u
		}
		logU := math.Log(u)
		if i == 0 {
			logU0 = logU
			continue
		}
		period := 2 * logKappa
		off := logU - logU0 - float64(i)*logSigma
		if off -= period * math.Round(off/period); !(math.Abs(off) <= symTol) {
			return symmetry{}
		}
	}
	zone := zoneTol / logSigma
	if !(hi > lo) || math.IsInf(hi, 0) || zone > 1e-3 {
		return symmetry{}
	}
	// The period's lower edge: the first point a quarter period past one
	// of robot 0's positive turning points that lies at or beyond lo.
	j := math.Ceil((math.Log(lo)-logU0)/logSigma - 0.25)
	s := symmetry{
		ok: true, lo: lo, hi: hi,
		logSigma: logSigma, invLogSigma: 1 / logSigma,
		logBase: logU0 + (j+0.25)*logSigma,
		zone:    zone,
	}
	if math.Log(hi) < s.logBase+logSigma {
		return symmetry{} // the table is certified on one whole period of corners
	}
	// Positive turning points fall on whole periods from ln u_0, so a
	// quarter period before the next edge. Negative ones sit a factor
	// kappa = sigma^(n/2) further out: on the same phase for even n,
	// half a period away for odd n.
	s.turn[0] = 0.75
	s.turn[1] = 0.75
	if n%2 == 1 {
		s.turn[1] = 0.25
	}
	return s
}

// at returns the target on side side (0: positive) at phase frac of
// the base period.
func (s *symmetry) at(side int, frac float64) float64 {
	y := math.Exp(s.logBase + frac*s.logSigma)
	if side == 1 {
		return -y
	}
	return y
}

// locate reduces x to its period m, side and region (0 below the
// side's turning point, 1 the zone around it, 2 above). ok is false
// outside [lo, hi], where the table does not answer.
func (s *symmetry) locate(x float64) (m, side, region int, ok bool) {
	ax := math.Abs(x)
	if !(ax >= s.lo && ax <= s.hi) {
		return 0, 0, 0, false
	}
	p := (math.Log(ax) - s.logBase) * s.invLogSigma
	fm := math.Floor(p)
	frac := p - fm
	if x < 0 {
		side = 1
	}
	switch turn := s.turn[side]; {
	case frac < turn-s.zone:
		region = 0
	case frac <= turn+s.zone:
		region = 1
	default:
		region = 2
	}
	return int(fm), side, region, true
}

// phaseRegion is one region's certificate for one rank: at a target
// of period m in the region, robots (cand[j] + m) mod n are the only
// possible k-th visitors, and earlier robots visit before all of them.
type phaseRegion struct {
	earlier int32
	ncand   int32
	cand    [maxCandidates]int32
}

// phaseTable is one rank's certificates, [side][region]: 6 regions of
// 40 bytes, whatever n.
type phaseTable struct {
	regions [2][3]phaseRegion
}

// rankTable is one rank's lazily built table and the scan count that
// triggers its build. claimed is set by the one query that builds the
// table; table stays nil while it builds and after a failed
// certificate.
type rankTable struct {
	scans   atomic.Int64
	claimed atomic.Bool
	table   atomic.Pointer[phaseTable]
}

// tableSlot returns rank k's table slot, allocating the per-rank slots
// on the first query at a rank other than the plan's detection rank.
func (p *Plan) tableSlot(k int) *rankTable {
	if k == p.model.DetectionRank() {
		return &p.table
	}
	slots := p.otherRanks.Load()
	if slots == nil {
		fresh := make([]rankTable, len(p.robots)+1)
		if !p.otherRanks.CompareAndSwap(nil, &fresh) {
			slots = p.otherRanks.Load()
		} else {
			slots = &fresh
		}
	}
	return &(*slots)[k]
}

// phaseTable returns rank k's table, or nil while the scan must answer:
// the plan has no self-similarity, the table is being built by another
// query, its certificate failed, or fewer than tableBuildScans targets
// have been scanned at rank k. The query that crosses that count builds
// the table with e's scratch.
func (e *Evaluator) phaseTable(k int) *phaseTable {
	p := e.plan
	if !p.sym.ok || len(p.robots) < minTableRobots {
		return nil
	}
	rt := p.tableSlot(k)
	if t := rt.table.Load(); t != nil {
		return t
	}
	if rt.claimed.Load() || rt.scans.Add(1) <= tableBuildScans || !rt.claimed.CompareAndSwap(false, true) {
		return nil
	}
	t, ok := e.buildTable(k)
	if !ok {
		return nil
	}
	rt.table.Store(t)
	return t
}

// tableKth answers the k-th first visit at x from t, or reports false
// when x is outside the table's range (or, defensively, a candidate
// never visits x, which the detected structure rules out). The
// candidates are evaluated at
// x itself, so the answer is one of the values the scan would select
// from, and the region's certificate makes it the one it selects.
func (e *Evaluator) tableKth(t *phaseTable, x float64, k int) (float64, bool) {
	m, side, region, ok := e.plan.sym.locate(x)
	if !ok {
		return 0, false
	}
	reg := &t.regions[side][region]
	n := len(e.plan.robots)
	if m != e.period { // sorted targets mostly repeat the previous period
		e.period, e.shift = m, m%n
		if e.shift < 0 {
			e.shift += n
		}
	}
	shift := e.shift
	if reg.ncand == 1 {
		return e.visit(int(reg.cand[0])+shift, x)
	}
	var ts [maxCandidates]float64
	for j, c := range reg.cand[:reg.ncand] {
		v, ok := e.visit(int(c)+shift, x)
		if !ok {
			return 0, false
		}
		ts[j] = v
	}
	return minSelect(ts[:reg.ncand], k-int(reg.earlier)), true
}

// visit is robot i mod n's first visit at x for i < 2n, through the
// robot's hint.
func (e *Evaluator) visit(i int, x float64) (float64, bool) {
	if n := len(e.plan.robots); i >= n {
		i -= n
	}
	v, idx, ok := e.plan.robots[i].firstVisit(x, e.hints[i])
	e.hints[i] = idx
	return v, ok
}

// buildTable certifies rank k's regions. For each side it evaluates
// every robot at two phases below the side's turning point and two
// above it (period 0, so robot identities need no shift), records each
// robot's delay d_i = t_i - |x|, and checks the delay is the same at
// both phases: it is constant between two fleet turning points. A
// robot's delay at any period then lies within tol of its d_i, so the
// k-th delay lies between the k-th smallest lower and upper bounds;
// robots whose whole bound interval lies below that range are earlier,
// above it later, and the rest are candidates. The zone merges both
// sides' bounds, covering targets on either side of the turning point.
func (e *Evaluator) buildTable(k int) (*phaseTable, bool) {
	s := &e.plan.sym
	n := len(e.plan.robots)
	work := make([]float64, 4*n)
	below, above, lo, hi := work[:n], work[n:2*n], work[2*n:3*n], work[3*n:]
	t := new(phaseTable)
	for side := range 2 {
		turn := s.turn[side]
		delays := func(dst []float64, f1, f2 float64) bool {
			x1, x2 := s.at(side, f1), s.at(side, f2)
			for i := range e.plan.robots {
				ct := &e.plan.robots[i]
				t1, _, ok1 := ct.firstVisit(x1, -1)
				t2, _, ok2 := ct.firstVisit(x2, -1)
				if !ok1 || !ok2 {
					return false
				}
				d1, d2 := t1-math.Abs(x1), t2-math.Abs(x2)
				if math.Abs(d1-d2) > 1e-3*certTol*max(t1, t2) {
					return false
				}
				dst[i] = d1
			}
			return true
		}
		if !delays(below, turn/8, 7*turn/8) || !delays(above, turn+(1-turn)/8, turn+7*(1-turn)/8) {
			return nil, false
		}
		// A robot's delay errs by a fraction of its own first-visit time,
		// which is at most the period's largest |x| plus the delay.
		top := math.Abs(s.at(side, 1))
		for r, pair := range [3][2][]float64{{below, below}, {below, above}, {above, above}} {
			for i := range n {
				d0, d1 := min(pair[0][i], pair[1][i]), max(pair[0][i], pair[1][i])
				lo[i] = d0 - certTol*(top+math.Abs(d0))
				hi[i] = d1 + certTol*(top+math.Abs(d1))
			}
			if !e.certify(&t.regions[side][r], lo, hi, k) {
				return nil, false
			}
		}
	}
	return t, true
}

// certify fills reg from per-robot bounds [lo_i, hi_i] on the delays:
// the k-th delay lies in [A, B], the k-th smallest lower and upper
// bounds, so robots with hi_i < A are earlier and robots with lo_i > B
// later. It fails when more than maxCandidates robots remain.
func (e *Evaluator) certify(reg *phaseRegion, lo, hi []float64, k int) bool {
	buf := e.buf[:len(lo)]
	copy(buf, lo)
	a := selectKth(buf, k)
	copy(buf, hi)
	b := selectKth(buf, k)
	*reg = phaseRegion{}
	for i := range lo {
		switch {
		case hi[i] < a:
			reg.earlier++
		case lo[i] > b:
		case reg.ncand == maxCandidates:
			return false
		default:
			reg.cand[reg.ncand] = int32(i)
			reg.ncand++
		}
	}
	return reg.earlier < int32(k) && int32(k) <= reg.earlier+reg.ncand
}
