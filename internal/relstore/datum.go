// Package relstore is the in-memory relational database substrate that plays
// the role of the paper's underlying relational sources. It offers exactly
// the capabilities the paper assumes of such sources (Section 1): it accepts
// an SQL query and returns a cursor that delivers result tuples one at a
// time ("relational databases support a basic form of partial result
// evaluation"), and nothing more — in particular no context mechanism, which
// is why the mediator needs decontextualization.
//
// Every tuple a cursor ships is counted, so the experiments can measure the
// mediator↔source transfer that MIX's lazy evaluation and query pushdown
// minimize.
package relstore

import (
	"fmt"
	"math"
	"strconv"

	"mix/internal/xtree"
)

// Type is a column type.
type Type int

// The supported column types.
const (
	TInt Type = iota
	TFloat
	TString
)

func (t Type) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	default:
		return "STRING"
	}
}

// Datum is one typed value. The zero Datum is the empty string. It is 32
// bytes — a float shares the integer's word. Rows in flight and cached
// result rows are made of these; a table keeps a row as its values' bytes in
// pages (see packed).
type Datum struct {
	Kind Type
	I    int64 // the TInt value; the IEEE 754 bits of a TFloat, read through F
	S    string
}

// F returns the value of a TFloat datum.
func (d Datum) F() float64 { return math.Float64frombits(uint64(d.I)) }

// Int makes an integer datum.
func Int(v int64) Datum { return Datum{Kind: TInt, I: v} }

// Float makes a float datum.
func Float(v float64) Datum { return Datum{Kind: TFloat, I: int64(math.Float64bits(v))} }

// Str makes a string datum.
func Str(v string) Datum { return Datum{Kind: TString, S: v} }

// String renders the datum's value (not its type).
func (d Datum) String() string {
	switch d.Kind {
	case TInt:
		return strconv.FormatInt(d.I, 10)
	case TFloat:
		return strconv.FormatFloat(d.F(), 'g', -1, 64)
	default:
		return d.S
	}
}

// AppendText appends the datum's value as String renders it to b.
func (d Datum) AppendText(b []byte) []byte {
	switch d.Kind {
	case TInt:
		return strconv.AppendInt(b, d.I, 10)
	case TFloat:
		return strconv.AppendFloat(b, d.F(), 'g', -1, 64)
	default:
		return append(b, d.S...)
	}
}

// Compare orders two datums. Numeric kinds compare numerically with each
// other; strings compare lexicographically; a numeric and a string compare
// via the string form of the number (matching xtree.CompareValues so that
// pushed-down and mediator-evaluated predicates agree).
func Compare(a, b Datum) int {
	an, aok := a.numeric()
	bn, bok := b.numeric()
	return compareRead(a, an, aok, b, bn, bok)
}

// compareRead is Compare given both datums' numeric readings.
func compareRead(a Datum, an float64, aok bool, b Datum, bn float64, bok bool) int {
	if aok && bok {
		switch {
		case an < bn:
			return -1
		case an > bn:
			return 1
		default:
			return 0
		}
	}
	as, bs := a.String(), b.String()
	switch {
	case as < bs:
		return -1
	case as > bs:
		return 1
	default:
		return 0
	}
}

func (d Datum) numeric() (float64, bool) {
	switch d.Kind {
	case TInt:
		return float64(d.I), true
	case TFloat:
		return d.F(), true
	default:
		return xtree.ParseNumber(d.S)
	}
}

// ParseDatum converts a literal string to a datum of the column type.
func ParseDatum(t Type, s string) (Datum, error) {
	switch t {
	case TInt:
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Datum{}, fmt.Errorf("relstore: %q is not an integer", s)
		}
		return Int(v), nil
	case TFloat:
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Datum{}, fmt.Errorf("relstore: %q is not a float", s)
		}
		return Float(v), nil
	default:
		return Str(s), nil
	}
}
