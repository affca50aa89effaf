package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strconv"

	"linesearch"
	"linesearch/internal/telemetry"
)

// jsonAppender is a result that appends its own JSON encoding to a
// buffer: the bytes json.Marshal would write for its wire shape, or
// nothing and json.Marshal's error where that would fail.
type jsonAppender interface {
	appendJSON(buf *bytes.Buffer) error
}

// encodeResult writes v's JSON encoding, without a newline, to buf. A
// jsonAppender writes its own, and a string (a batch item's error) is
// written as a JSON string; anything else, a timeline answer, goes
// through json.Encoder.
// A plan answer's turning points are walked while it is written, so
// its encoding is ctx's plan.geometry stage.
func encodeResult(ctx context.Context, buf *bytes.Buffer, v any) error {
	switch a := v.(type) {
	case PlanResult:
		_, span := telemetry.StartSpan(ctx, "plan.geometry")
		span.SetInt("robots", int64(a.N))
		err := a.appendJSON(buf)
		span.End()
		return err
	case jsonAppender:
		return a.appendJSON(buf)
	case string:
		buf.Write(appendString(buf.AvailableBuffer(), a))
		return nil
	}
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return err
	}
	buf.Truncate(buf.Len() - 1) // Encode's newline
	return nil
}

// appendJSON writes the answer as json.Marshal writes the struct
// {N int `json:"n"`; F int `json:"f"`; Strategy string `json:"strategy"`;
// Model string `json:"model,omitempty"`; DetectionRank int
// `json:"detection_rank,omitempty"`; X float64 `json:"x"`; K int
// `json:"k"`; Objective string `json:"objective,omitempty"`; P float64
// `json:"p,omitempty"`; Speeds []float64 `json:"speeds,omitempty"`;
// Time, Ratio *float64 `json:"time"`, `json:"ratio"`; Detected bool
// `json:"detected"`}, with nil pointers for a non-finite time or ratio,
// and fails where that encoding fails: at the first non-finite plain
// number, in field order.
func (r SearchTimeResult) appendJSON(buf *bytes.Buffer) error {
	var err error
	b := appendPlanKey(buf.AvailableBuffer(), r.N, r.F, r.Strategy)
	b = appendModel(b, r.Model, r.DetectionRank)
	b = append(b, `,"x":`...)
	if b, err = appendNumber(b, r.X); err != nil {
		return err
	}
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(r.K), 10)
	if r.Objective != "" {
		b = append(b, `,"objective":`...)
		b = appendString(b, r.Objective)
	}
	if r.P != 0 {
		b = append(b, `,"p":`...)
		if b, err = appendNumber(b, r.P); err != nil {
			return err
		}
	}
	if len(r.Speeds) > 0 {
		b = append(b, `,"speeds":[`...)
		for i, v := range r.Speeds {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendNumber(b, v); err != nil {
				return err
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"time":`...)
	b = appendFloat(b, r.Time)
	b = append(b, `,"ratio":`...)
	b = appendFloat(b, r.Ratio)
	b = append(b, `,"detected":`...)
	b = strconv.AppendBool(b, r.Detected)
	buf.Write(append(b, '}'))
	return nil
}

// appendJSON writes the answer as json.Marshal writes the struct
// {N int `json:"n"`; F int `json:"f"`; Regime string `json:"regime"`;
// UpperBound, LowerBound *float64 `json:"upper_bound"`,
// `json:"lower_bound"`; Beta, Expansion *float64 `json:"beta,omitempty"`,
// `json:"expansion,omitempty"`}, with nil pointers for non-finite
// values.
func (r LowerBoundResult) appendJSON(buf *bytes.Buffer) error {
	b := append(buf.AvailableBuffer(), `{"n":`...)
	b = strconv.AppendInt(b, int64(r.N), 10)
	b = append(b, `,"f":`...)
	b = strconv.AppendInt(b, int64(r.F), 10)
	b = append(b, `,"regime":`...)
	b = appendString(b, r.Regime)
	b = appendBounds(b, r.UpperBound, r.LowerBound, r.Beta, r.Expansion)
	buf.Write(append(b, '}'))
	return nil
}

// appendJSON writes the answer as json.Marshal writes the struct
// {N int `json:"n"`; F int `json:"f"`; Strategy string `json:"strategy"`;
// Model string `json:"model,omitempty"`; DetectionRank int
// `json:"detection_rank,omitempty"`; Xs []float64 `json:"xs"`;
// Times []*float64 `json:"times"`; Detected int `json:"detected"`},
// with a null time for each non-finite one. The targets are the
// client's own text when it is canonical; only the times are
// formatted.
func (r SearchTimesResult) appendJSON(buf *bytes.Buffer) error {
	b := appendPlanKey(buf.AvailableBuffer(), r.N, r.F, r.Strategy)
	b = appendModel(b, r.Model, r.DetectionRank)
	b = append(b, `,"xs":[`...)
	if r.Xs.echo != "" {
		b = append(b, r.Xs.echo...)
	} else {
		for i, x := range r.Xs.vals {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendFloat(b, x)
		}
	}
	b = append(b, `],"times":[`...)
	for i, t := range r.Times {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, t)
	}
	b = append(b, `],"detected":`...)
	b = strconv.AppendInt(b, int64(r.Detected), 10)
	buf.Write(append(b, '}'))
	return nil
}

// appendPlanKey opens an answer with its n, f and strategy fields.
func appendPlanKey(b []byte, n, f int, strategy string) []byte {
	b = append(b, `{"n":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, `,"f":`...)
	b = strconv.AppendInt(b, int64(f), 10)
	b = append(b, `,"strategy":`...)
	return appendString(b, strategy)
}

// appendModel appends the model and detection_rank fields, each omitted
// when "" or 0.
func appendModel(b []byte, model string, rank int) []byte {
	if model != "" {
		b = append(b, `,"model":`...)
		b = appendString(b, model)
	}
	if rank != 0 {
		b = append(b, `,"detection_rank":`...)
		b = strconv.AppendInt(b, int64(rank), 10)
	}
	return b
}

// appendBounds appends the pair-level bounds: upper_bound and
// lower_bound, null when not finite, then beta and expansion, omitted
// when not finite.
func appendBounds(b []byte, upper, lower, beta, expansion float64) []byte {
	b = append(b, `,"upper_bound":`...)
	b = appendFloat(b, upper)
	b = append(b, `,"lower_bound":`...)
	b = appendFloat(b, lower)
	if finite(beta) {
		b = append(b, `,"beta":`...)
		b = appendFloat(b, beta)
	}
	if finite(expansion) {
		b = append(b, `,"expansion":`...)
		b = appendFloat(b, expansion)
	}
	return b
}

// appendJSON writes the answer as json.Marshal writes the struct
// {N int `json:"n"`; F int `json:"f"`; Strategy string `json:"strategy"`;
// MinDist float64 `json:"mindist"`; Model string `json:"model,omitempty"`;
// Votes int `json:"votes,omitempty"`; DetectionRank int
// `json:"detection_rank,omitempty"`; Regime string `json:"regime"`;
// CompetitiveRatio float64 `json:"competitive_ratio"`; UpperBound,
// LowerBound *float64 `json:"upper_bound"`, `json:"lower_bound"`; Beta,
// Expansion *float64 `json:"beta,omitempty"`, `json:"expansion,omitempty"`;
// Horizon float64 `json:"horizon"`; TurningPoints [][]linesearch.Point
// `json:"turning_points"`}, with nil pointers for non-finite bounds, and
// fails where that encoding fails: at the first non-finite plain
// number, in field order. Each robot's points are appended to buf's
// free space and written on their own, so a large answer grows buf
// rather than a slice of its own.
func (r PlanResult) appendJSON(buf *bytes.Buffer) error {
	start := buf.Len()
	b, err := r.appendHead(buf.AvailableBuffer())
	for i := 0; i < r.N && err == nil; i++ {
		buf.Write(b)
		b = buf.AvailableBuffer()
		if i > 0 {
			b = append(b, ',')
		}
		b, err = r.appendRobot(b, i)
	}
	if err != nil {
		buf.Truncate(start)
		return err
	}
	buf.Write(append(b, "]}"...))
	if r.written != nil {
		r.written.Store(int64(buf.Len() - start))
	}
	return nil
}

// appendHead appends every field of the answer before its turning
// points, and the opening of their list.
func (r PlanResult) appendHead(b []byte) ([]byte, error) {
	var err error
	b = appendPlanKey(b, r.N, r.F, r.Strategy)
	b = append(b, `,"mindist":`...)
	if b, err = appendNumber(b, r.MinDist); err != nil {
		return nil, err
	}
	if r.Model != "" {
		b = append(b, `,"model":`...)
		b = appendString(b, r.Model)
	}
	if r.Votes != 0 {
		b = append(b, `,"votes":`...)
		b = strconv.AppendInt(b, int64(r.Votes), 10)
	}
	if r.DetectionRank != 0 {
		b = append(b, `,"detection_rank":`...)
		b = strconv.AppendInt(b, int64(r.DetectionRank), 10)
	}
	b = append(b, `,"regime":`...)
	b = appendString(b, r.Regime)
	b = append(b, `,"competitive_ratio":`...)
	if b, err = appendNumber(b, r.CompetitiveRatio); err != nil {
		return nil, err
	}
	b = appendBounds(b, r.UpperBound, r.LowerBound, r.Beta, r.Expansion)
	b = append(b, `,"horizon":`...)
	if b, err = appendNumber(b, r.Horizon); err != nil {
		return nil, err
	}
	return append(b, `,"turning_points":[`...), nil
}

// appendRobot appends robot i's turning points up to the horizon, at
// most maxTurningPoints of them, as a JSON list of {"t":…,"x":…}.
func (r PlanResult) appendRobot(b []byte, i int) ([]byte, error) {
	var err error
	b = append(b, '[')
	sep := false
	walkErr := r.searcher.WalkTurningPoints(i, r.Horizon, maxTurningPoints, func(p linesearch.Point) bool {
		if sep {
			b = append(b, ',')
		}
		sep = true
		b = append(b, `{"t":`...)
		if b, err = appendNumber(b, p.T); err != nil {
			return false
		}
		b = append(b, `,"x":`...)
		if b, err = appendNumber(b, p.X); err != nil {
			return false
		}
		b = append(b, '}')
		return true
	})
	if err == nil {
		err = walkErr
	}
	return append(b, ']'), err
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// appendNumber appends x as appendFloat does, and fails with
// json.Marshal's error where x is not finite: a plain float64 field
// has no JSON encoding then.
func appendNumber(b []byte, x float64) ([]byte, error) {
	if !finite(x) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(x, 'g', -1, 64)}
	}
	return appendFloat(b, x), nil
}

// appendString appends s as encoding/json writes a string. Strategy
// and model names are plain ASCII and are copied; a string with a
// byte encoding/json escapes goes through json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s) // a string always encodes
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
