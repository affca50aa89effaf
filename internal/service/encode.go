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
// jsonAppender writes its own; anything else goes through json.Encoder.
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
// `json:"detection_rank,omitempty"`; Xs []float64 `json:"xs"`;
// Times []*float64 `json:"times"`; Detected int `json:"detected"`},
// with a null time for each non-finite one. The targets are the
// client's own text when it is canonical; only the times are
// formatted.
func (r SearchTimesResult) appendJSON(buf *bytes.Buffer) error {
	b := append(buf.AvailableBuffer(), `{"n":`...)
	b = strconv.AppendInt(b, int64(r.N), 10)
	b = append(b, `,"f":`...)
	b = strconv.AppendInt(b, int64(r.F), 10)
	b = append(b, `,"strategy":`...)
	b = appendString(b, r.Strategy)
	if r.Model != "" {
		b = append(b, `,"model":`...)
		b = appendString(b, r.Model)
	}
	if r.DetectionRank != 0 {
		b = append(b, `,"detection_rank":`...)
		b = strconv.AppendInt(b, int64(r.DetectionRank), 10)
	}
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
	b = append(b, `{"n":`...)
	b = strconv.AppendInt(b, int64(r.N), 10)
	b = append(b, `,"f":`...)
	b = strconv.AppendInt(b, int64(r.F), 10)
	b = append(b, `,"strategy":`...)
	b = appendString(b, r.Strategy)
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
	b = append(b, `,"upper_bound":`...)
	b = appendFloat(b, r.UpperBound)
	b = append(b, `,"lower_bound":`...)
	b = appendFloat(b, r.LowerBound)
	if finite(r.Beta) {
		b = append(b, `,"beta":`...)
		b = appendFloat(b, r.Beta)
	}
	if finite(r.Expansion) {
		b = append(b, `,"expansion":`...)
		b = appendFloat(b, r.Expansion)
	}
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

// appendFloat appends x as encoding/json writes a float64, and null
// for NaN and the infinities, which JSON cannot represent: the
// shortest round-trip decimal, in plain notation unless |x| < 1e-6 or
// |x| >= 1e21, with a two-digit negative exponent cut to one digit.
func appendFloat(b []byte, x float64) []byte {
	if !finite(x) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
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
