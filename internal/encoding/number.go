package encoding

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"sync"
)

// number is one JSON number token as readNumber gathers it: its value is
// man × 10^exp10 when exact holds, with the sign from neg.
type number struct {
	man     uint64 // the first maxMantDigits significant digits
	exp10   int
	neg     bool
	integer bool // no fraction and no exponent
	exact   bool // every nonzero significant digit is in man
}

// maxMantDigits is the most decimal digits a uint64 always holds.
const maxMantDigits = 19

// maxExponent caps the exponent read from the token: any larger one
// is far outside the table, so its exact value no longer matters.
const maxExponent = 10000

// readNumber reads the token of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, that starts at b[i],
// and returns it with the index just past it. The same pass that checks
// the grammar gathers the significant digits and the decimal exponent.
func readNumber(b []byte, i int) (n number, end int, ok bool) {
	if i < len(b) && b[i] == '-' {
		n.neg = true
		i++
	}
	if i == len(b) {
		return n, i, false
	}
	nd := 0 // digits in man
	trunc := false
	switch c := b[i]; {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		var dropped int
		i, n.man, nd, dropped, trunc = digits(b, i, 0, 0)
		n.exp10 = dropped
	default:
		return n, i, false
	}
	n.integer = true
	if i < len(b) && b[i] == '.' {
		n.integer = false
		i++
		start := i
		if nd == 0 { // leading zeros only move the point
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		var dropped int
		var nonzero bool
		i, n.man, nd, dropped, nonzero = digits(b, i, n.man, nd)
		if i == start {
			return n, i, false
		}
		n.exp10 -= i - start - dropped
		trunc = trunc || nonzero
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		n.integer = false
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		start, e := i, 0
		for ; i < len(b); i++ {
			d := b[i] - '0'
			if d > 9 {
				break
			}
			if e < maxExponent {
				e = e*10 + int(d)
			}
		}
		if i == start {
			return n, i, false
		}
		if eneg {
			e = -e
		}
		n.exp10 += e
	}
	n.exact = !trunc
	return n, i, true
}

// digits reads the run of decimal digits at b[i:] into man, which holds
// nd significant digits already, while it has room for them, eight at a
// time where it can. It returns the index past the run, the new man and
// nd, how many of the run's digits did not fit, and whether any of those
// was nonzero.
func digits(b []byte, i int, man uint64, nd int) (end int, m uint64, n, dropped int, nonzero bool) {
	for nd+8 <= maxMantDigits && i+8 <= len(b) {
		v := binary.LittleEndian.Uint64(b[i:])
		if !eightDigits(v) {
			break
		}
		man = man*1e8 + parseEight(v)
		nd += 8
		i += 8
	}
	for ; i < len(b) && nd < maxMantDigits; i++ {
		d := b[i] - '0'
		if d > 9 {
			return i, man, nd, 0, false
		}
		man = man*10 + uint64(d)
		nd++
	}
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		dropped++
		nonzero = nonzero || d != 0
	}
	return i, man, nd, dropped, nonzero
}

// eightDigits reports whether the eight bytes of v, read little-endian,
// are all ASCII digits: each byte's high nibble is 3, and adding 6 does
// not carry its low nibble past 9.
func eightDigits(v uint64) bool {
	return (v&0xF0F0F0F0F0F0F0F0)|((v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0)>>4 == 0x3333333333333333
}

// parseEight returns the value of the eight ASCII digits in v, the first
// in its low byte, combining neighbours pairwise: 2-digit, then 4-digit,
// then the 8-digit value.
func parseEight(v uint64) uint64 {
	v -= 0x3030303030303030
	v = v*10 + v>>8 // each even byte: two digits
	const mask = 0x000000FF000000FF
	const mul1 = 100 + 1000000<<32
	const mul2 = 1 + 10000<<32
	return (v&mask*mul1 + (v>>16)&mask*mul2) >> 32
}

// float converts n, whose token is tok, to the float64 that
// strconv.ParseFloat(tok, 64) returns — the call encoding/json makes — and
// reports false where ParseFloat fails (the value overflows). Every path
// rounds correctly, so the bits are ParseFloat's:
//
//  1. Clinger's exact path: a mantissa below 2⁵³ and 10^|exp10| with
//     |exp10| ≤ 22 are both exact float64s, so one IEEE multiply or divide
//     rounds their product or quotient once, correctly;
//  2. Eisel–Lemire over the 128-bit power table, which either returns the
//     correctly rounded value or declines;
//  3. strconv.ParseFloat on the token, for more than 19 significant
//     digits, exponents outside the table and everything Eisel–Lemire
//     declines (halfway cases, subnormals, overflow).
func (n number) float(tok []byte) (float64, bool) {
	if n.exact {
		if n.man == 0 {
			if n.neg {
				return math.Copysign(0, -1), true
			}
			return 0, true
		}
		if n.man < 1<<53 && -22 <= n.exp10 && n.exp10 <= 22 {
			f := float64(n.man)
			if n.exp10 < 0 {
				f /= exactPow10[-n.exp10]
			} else {
				f *= exactPow10[n.exp10]
			}
			if n.neg {
				f = -f
			}
			return f, true
		}
		if f, ok := eiselLemire(n.man, n.exp10, n.neg); ok {
			return f, true
		}
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// int returns n as an int when its token is an integer that fits one, as
// strconv.Atoi accepts it.
func (n number) int() (int, bool) {
	// More than 19 digits (exp10 > 0) is at least 10¹⁹, past any int.
	if !n.integer || n.exp10 != 0 {
		return 0, false
	}
	if n.neg {
		if n.man > uint64(math.MaxInt)+1 {
			return 0, false
		}
		return int(-n.man), true
	}
	if n.man > math.MaxInt {
		return 0, false
	}
	return int(n.man), true
}

// exactPow10 holds the powers of ten that float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// pow10Min and pow10Max bound the exponents of the Eisel–Lemire table,
// the same range strconv's own table covers.
const (
	pow10Min = -348
	pow10Max = 347
)

// pow10Table returns, for each 10^e with pow10Min ≤ e ≤ pow10Max at index
// e − pow10Min, the 128 leading bits of its binary expansion rounded down,
// as {low, high} 64-bit words: ⌊10^e · 2^s⌋ for the s that puts it in
// [2¹²⁷, 2¹²⁸). It is built with math/big on first use, so a process that
// never reaches path 2 never pays for it.
var pow10Table = sync.OnceValue(func() *[pow10Max - pow10Min + 1][2]uint64 {
	t := new([pow10Max - pow10Min + 1][2]uint64)
	var p, m big.Int
	words := func(e int) {
		var hi big.Int
		hi.Rsh(&m, 64)
		t[e-pow10Min] = [2]uint64{m.Uint64(), hi.Uint64()}
	}
	p.SetInt64(1)
	for e := 0; e <= pow10Max; e++ {
		if s := p.BitLen() - 128; s > 0 {
			m.Rsh(&p, uint(s))
		} else {
			m.Lsh(&p, uint(-s))
		}
		words(e)
		p.Mul(&p, big.NewInt(10))
	}
	// 10^k is no power of two for k ≥ 1, so ⌊2^(127+L)/10^k⌋, with L the
	// bit length of 10^k, lies strictly inside [2¹²⁷, 2¹²⁸).
	p.SetInt64(10)
	one := big.NewInt(1)
	for e := -1; e >= pow10Min; e-- {
		m.Lsh(one, uint(127+p.BitLen()))
		m.Quo(&m, &p)
		words(e)
		p.Mul(&p, big.NewInt(10))
	}
	return t
})

// eiselLemire converts man × 10^exp10 (man ≠ 0) to the correctly rounded
// float64, or declines. It follows strconv's eiselLemire64 and the
// algorithm's description at
// https://nigeltao.github.io/blog/2020/eisel-lemire.html, whose section
// names the comments use.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	// Exp10 Range.
	if exp10 < pow10Min || pow10Max < exp10 {
		return 0, false
	}
	pow := &pow10Table()[exp10-pow10Min]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// A biased exponent of 0 (or one that wrapped below it) is subnormal
	// space, 0x7FF or more is Inf/NaN: both are left to ParseFloat.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		retBits |= 1 << 63
	}
	return math.Float64frombits(retBits), true
}
