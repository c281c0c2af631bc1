package xtree

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func TestParseCmpOp(t *testing.T) {
	cases := map[string]CmpOp{
		"=": OpEQ, "==": OpEQ, "!=": OpNE, "<>": OpNE,
		"<": OpLT, "<=": OpLE, ">": OpGT, ">=": OpGE,
	}
	for s, want := range cases {
		got, ok := ParseCmpOp(s)
		if !ok || got != want {
			t.Errorf("ParseCmpOp(%q) = %v, %v", s, got, ok)
		}
	}
	if _, ok := ParseCmpOp("~"); ok {
		t.Error("ParseCmpOp must reject unknown operators")
	}
}

func TestCmpOpString(t *testing.T) {
	for op, want := range map[CmpOp]string{
		OpEQ: "=", OpNE: "!=", OpLT: "<", OpLE: "<=", OpGT: ">", OpGE: ">=",
	} {
		if op.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(op), op.String(), want)
		}
	}
}

func TestCompareValuesNumeric(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"2", "10", -1}, // numeric, not lexicographic
		{"10", "2", 1},
		{"3.5", "3.50", 0},
		{"0300", "300", 0}, // leading zeros compare numerically
		{"-1", "1", -1},
		{"abc", "abd", -1}, // strings lexicographic
		{"2", "abc", -1},   // mixed falls back to string: "2" < "abc"
		{"B", "A", 1},
		{"", "", 0},
	}
	for _, c := range cases {
		if got := CompareValues(c.a, c.b); got != c.want {
			t.Errorf("CompareValues(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEvalCmpAllOps(t *testing.T) {
	type row struct {
		x  string
		op CmpOp
		y  string
		ok bool
	}
	rows := []row{
		{"300", OpLT, "500", true},
		{"500", OpLT, "300", false},
		{"300", OpLE, "300", true},
		{"300", OpEQ, "300", true},
		{"300", OpNE, "300", false},
		{"500", OpGT, "300", true},
		{"500", OpGE, "500", true},
		{"AAA", OpLT, "B", true},
		{"medium", OpGE, "medium", true},
	}
	for _, r := range rows {
		if got := EvalCmp(r.x, r.op, r.y); got != r.ok {
			t.Errorf("EvalCmp(%q %s %q) = %v, want %v", r.x, r.op, r.y, got, r.ok)
		}
	}
}

// Property: Negate is an involution and EvalCmp(x, op, y) XOR
// EvalCmp(x, Negate(op), y) always holds.
func TestNegateProperty(t *testing.T) {
	ops := []CmpOp{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE}
	f := func(x, y int16, opIdx uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		if op.Negate().Negate() != op {
			return false
		}
		xs, ys := itoa(int(x)), itoa(int(y))
		return EvalCmp(xs, op, ys) != EvalCmp(xs, op.Negate(), ys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Flip mirrors operands: x op y == y Flip(op) x.
func TestFlipProperty(t *testing.T) {
	ops := []CmpOp{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE}
	f := func(x, y int16, opIdx uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		xs, ys := itoa(int(x)), itoa(int(y))
		return EvalCmp(xs, op, ys) == EvalCmp(ys, op.Flip(), xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [24]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// TestParseNumberIsParseFloat pins the fast path as exact: over strings built
// from every byte a Go float can contain (and a few it cannot), ParseNumber
// accepts exactly what strconv.ParseFloat accepts, with the same value.
func TestParseNumberIsParseFloat(t *testing.T) {
	cases := []string{"", "nan", "NaN", "nAn", "nano", "na", "+nan", "inf", "Inf", "INFINITY", "infinit", "infin",
		"+inf", "-Infinity", "i", "n", "N1", "0x1p-2", "0X_1P0", "1_0", "1e999", "-1e-999", ".5", "5.", ".", "+", "-",
		"C000001", "10a", "a10", " 1", "1 ", "١", "1e", "e1", "_1", "0b1", "0o7", "07"}
	const alphabet = "0123456789+-.eEpPxX_nNaAiIfFtTyY Cc"
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		b := make([]byte, 1+rng.Intn(9))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		want, err := strconv.ParseFloat(s, 64)
		got, ok := ParseNumber(s)
		if ok != (err == nil) {
			t.Fatalf("ParseNumber(%q) ok = %v, ParseFloat err = %v", s, ok, err)
		}
		if ok && got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("ParseNumber(%q) = %v, ParseFloat = %v", s, got, want)
		}
	}
}

// TestCompareValuesTextDoesNotAllocate: two values that are plainly not
// numbers are compared without ParseFloat building its two-allocation error.
func TestCompareValuesTextDoesNotAllocate(t *testing.T) {
	x, y := "C000001", "C000002"
	if n := testing.AllocsPerRun(100, func() { CompareValues(x, y) }); n != 0 {
		t.Fatalf("CompareValues(%q, %q) allocates %v times, want 0", x, y, n)
	}
}
