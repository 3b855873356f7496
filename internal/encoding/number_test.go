package encoding

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// scanNumberRef is the reference scanner: the two-pass decoder's grammar
// check, which finds the end of the token -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
// at the start of b and reports whether it has neither fraction nor
// exponent. The token is then converted by strconv.
func scanNumberRef(b []byte) (end int, integer, ok bool) {
	isDigit := func(c byte) bool { return '0' <= c && c <= '9' }
	skipDigits := func(i int) int {
		for i < len(b) && isDigit(b[i]) {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(i)
	default:
		return 0, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		if i++; i == len(b) || !isDigit(b[i]) {
			return 0, false, false
		}
		i = skipDigits(i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			return 0, false, false
		}
		i = skipDigits(i)
	}
	return i, integer, true
}

// sameNumber fails t unless readNumber agrees with scanNumberRef on where
// the token of b ends, and number.float with strconv.ParseFloat (number.int
// with strconv.Atoi, for integer tokens) on acceptance and value bits.
func sameNumber(t *testing.T, b []byte) {
	t.Helper()
	n, end, ok := readNumber(b, 0)
	wantEnd, wantInteger, wantOK := scanNumberRef(b)
	if ok != wantOK {
		t.Fatalf("%q: token accepted %v, reference %v", b, ok, wantOK)
	}
	if !ok {
		return
	}
	if end != wantEnd || n.integer != wantInteger {
		t.Fatalf("%q: token ends at %d (integer %v), reference %d (%v)", b, end, n.integer, wantEnd, wantInteger)
	}
	tok := b[:end]
	f, fok := n.float(tok)
	want, err := strconv.ParseFloat(string(tok), 64)
	if fok != (err == nil) {
		t.Fatalf("%q: float accepted %v, ParseFloat error %v", tok, fok, err)
	}
	if fok && math.Float64bits(f) != math.Float64bits(want) {
		t.Fatalf("%q: float %v (%#x), ParseFloat %v (%#x)", tok, f, math.Float64bits(f), want, math.Float64bits(want))
	}
	i, iok := n.int()
	if !n.integer {
		if iok {
			t.Fatalf("%q: read as the int %d", tok, i)
		}
		return
	}
	wantI, err := strconv.Atoi(string(tok))
	if iok != (err == nil) || (iok && i != wantI) {
		t.Fatalf("%q: int %d (ok %v), Atoi %d (error %v)", tok, i, iok, wantI, err)
	}
}

// numberSeeds are the tokens each conversion path turns on.
var numberSeeds = []string{
	"0", "-0", "0.0", "-0.0e5", "0e999", "-0E-999", "1e23", "-1e23",
	"9007199254740992", "9007199254740993", "9007199254740993.0",
	"2.2250738585072011e-308", "2.2250738585072014e-308", "4.9e-324",
	"5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
	"1.7976931348623157e308", "1.7976931348623159e308", "-1.7976931348623159e308",
	"1e308", "1e309", "1e-400", "1e400",
	"1234567890123456789",                      // 19 digits
	"12345678901234567890",                     // 20 digits
	"1234567890123456789012345678901234567890", // 40 digits
	"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
	"10000000000000000000000", "0.1000000000000000000000000001",
	"0.0000000000000000000000000000000000001234",
	"0.00000000000000000000000000000000000000000000000000000000000000001e64",
	"1513.8794043532068", "9601.189894102745", "0.5", "-0.5e-3", "1E+2",
	"1e99999999999999999999", "1e-99999999999999999999",
	"01", "-", "-a", "1.", "1.e5", "1e", "1e+", ".5", "+1", "1x", "", "1.5,",
}

func TestReadNumberMatchesStrconv(t *testing.T) {
	for _, s := range numberSeeds {
		sameNumber(t, []byte(s))
	}
}

// TestPow10TableEntries reads 1e{k} and {19 digits}e{k} for every k the
// table covers, and hands both mantissas straight to eiselLemire too, past
// Clinger's exact path. eiselLemire may decline (1e23 is a halfway case),
// but every entry whose power can give a normal float64, 10^-326 … 10^308,
// must be checked against strconv by at least one of the two.
func TestPow10TableEntries(t *testing.T) {
	checked := map[int]bool{}
	for _, digits := range []string{"1", "8765432109876543211"} {
		man, err := strconv.ParseUint(digits, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		for k := pow10Min; k <= pow10Max; k++ {
			tok := fmt.Sprintf("%se%d", digits, k)
			sameNumber(t, []byte(tok))
			want, err := strconv.ParseFloat(tok, 64)
			if f, ok := eiselLemire(man, k, false); ok {
				if err != nil || math.Float64bits(f) != math.Float64bits(want) {
					t.Fatalf("eiselLemire(%s) = %v, ParseFloat %v (%v)", tok, f, want, err)
				}
				checked[k] = true
			}
		}
	}
	for k := -326; k <= 308; k++ {
		if !checked[k] {
			t.Errorf("table entry 1e%d never checked", k)
		}
	}
}

// FuzzParseNumber holds the one-pass number reader to the two-pass
// reference on arbitrary bytes: where the token ends, whether it converts,
// and the float bits (strconv.ParseFloat) and int value (strconv.Atoi).
func FuzzParseNumber(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte("0." + strings.Repeat("0", 400) + "1e400"))
	f.Fuzz(func(t *testing.T, b []byte) {
		sameNumber(t, b)
	})
}

// TestReadNumberConcurrent converts numbers that need the lazily built
// power table from several goroutines at once; run it under -race.
func TestReadNumberConcurrent(t *testing.T) {
	toks := []string{"1513.8794043532068", "8765432109876543211e-300", "9601.189894102745e200"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range toks {
				n, end, ok := readNumber([]byte(s), 0)
				f, fok := n.float([]byte(s)[:end])
				want, err := strconv.ParseFloat(s, 64)
				if !ok || !fok || err != nil || math.Float64bits(f) != math.Float64bits(want) {
					t.Errorf("%s: %v (%v, %v), ParseFloat %v (%v)", s, f, ok, fok, want, err)
				}
			}
		}()
	}
	wg.Wait()
}
