package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"unicode/utf16"
	"unicode/utf8"
)

// lexer is a minimal allocation-free JSON scanner over one payload. It
// implements exactly the subset the wire shapes need — objects, arrays,
// strings (with full escape handling), integers, booleans and null — plus a
// generic skipper for unknown fields, so field order and extra fields are
// handled the way encoding/json handles them. Byte views returned by
// readString are valid only until the next readString call (escaped strings
// unescape into a shared scratch buffer); callers must copy (usually via
// the codec's intern table) before the next token.
type lexer struct {
	data    []byte
	pos     int
	scratch []byte
}

func (l *lexer) reset(data []byte) {
	l.data = data
	l.pos = 0
}

func (l *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("wire: offset %d: %s", l.pos, fmt.Sprintf(format, args...))
}

func (l *lexer) skipWS() {
	for l.pos < len(l.data) {
		switch l.data[l.pos] {
		case ' ', '\t', '\n', '\r':
			l.pos++
		default:
			return
		}
	}
}

// peek returns the first byte of the next token (0 at EOF).
func (l *lexer) peek() byte {
	// The repo's encoders and the chains' nodes put no white space between
	// tokens, so peek and tryConsume look at the byte under pos first and
	// only go looking past white space when it is not what they are after
	// (measured: 6 % of an EOS decode, 13 % of an XRP one).
	if p := l.pos; p < len(l.data) && l.data[p] > ' ' {
		return l.data[p]
	}
	l.skipWS()
	if l.pos >= len(l.data) {
		return 0
	}
	return l.data[l.pos]
}

// expect consumes the next token byte, which must be c.
func (l *lexer) expect(c byte) error {
	if !l.tryConsume(c) {
		return l.errf("expected %q", string(c))
	}
	return nil
}

// tryConsume consumes c if it is the next token byte.
func (l *lexer) tryConsume(c byte) bool {
	if p := l.pos; p < len(l.data) && l.data[p] == c {
		l.pos = p + 1
		return true
	}
	l.skipWS()
	if l.pos < len(l.data) && l.data[l.pos] == c {
		l.pos++
		return true
	}
	return false
}

// lit consumes the literal s (after leading whitespace).
func (l *lexer) lit(s string) error {
	l.skipWS()
	if len(l.data)-l.pos < len(s) || string(l.data[l.pos:l.pos+len(s)]) != s {
		return l.errf("expected %s", s)
	}
	l.pos += len(s)
	return nil
}

// tryNull consumes a null literal if present.
func (l *lexer) tryNull() bool {
	if l.peek() == 'n' {
		return l.lit("null") == nil
	}
	return false
}

// readString returns the next string's bytes as encoding/json would decode
// them: a view into the payload when it holds no escapes and is valid
// UTF-8, or into the lexer's scratch buffer otherwise.
func (l *lexer) readString() ([]byte, error) {
	if err := l.expect('"'); err != nil {
		return nil, err
	}
	start := l.pos
	high := l.scanPlain()
	// Only a span that showed a high bit pays for utf8.Valid.
	if l.pos < len(l.data) && l.data[l.pos] == '"' && (!high || utf8.Valid(l.data[start:l.pos])) {
		b := l.data[start:l.pos]
		l.pos++
		return b, nil
	}
	// Slow path: unescape into scratch from the top, coercing invalid UTF-8
	// to U+FFFD byte for byte as encoding/json does.
	l.pos = start
	l.scratch = l.scratch[:0]
	for l.pos < len(l.data) {
		c := l.data[l.pos]
		switch {
		case c == '"':
			l.pos++
			return l.scratch, nil
		case c < 0x20:
			return nil, l.errf("control character in string")
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(l.data[l.pos:])
			l.scratch = utf8.AppendRune(l.scratch, r)
			l.pos += size
		case c != '\\':
			l.scratch = append(l.scratch, c)
			l.pos++
		default:
			l.pos++
			r, err := l.readEscape()
			if err != nil {
				return nil, err
			}
			if utf16.IsSurrogate(r) {
				// A surrogate may pair with an immediately following
				// \uXXXX. Peek it without consuming: on a failed pair,
				// encoding/json emits one replacement char and re-scans
				// the second escape on its own — consuming it here would
				// decode differently.
				if r2, ok := l.peekEscapedHex4(); ok {
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						l.pos += 6
						r = dec
					} else {
						r = utf8.RuneError
					}
				} else {
					r = utf8.RuneError
				}
			}
			l.scratch = utf8.AppendRune(l.scratch, r)
		}
	}
	return nil, l.errf("unterminated string")
}

// skipString consumes a string nobody reads. It holds the bytes to the
// grammar readString does — a control byte, an unknown escape or a
// malformed \u refuses — but copies nothing, never touches scratch and
// never looks at the encoding (encoding/json rejects no string for it).
func (l *lexer) skipString() error {
	if err := l.expect('"'); err != nil {
		return err
	}
	for {
		l.scanPlain()
		if l.pos >= len(l.data) {
			return l.errf("unterminated string")
		}
		c := l.data[l.pos]
		l.pos++
		switch {
		case c == '"':
			return nil
		case c != '\\':
			return l.errf("control character in string")
		}
		if _, err := l.readEscape(); err != nil {
			return err
		}
	}
}

// scanPlain advances pos over the bytes a string holds verbatim — anything
// but a quote, a backslash or a control byte — eight at a step, and stops on
// the first byte that is not one (or at the end of the payload). It reports
// whether a byte it passed had its high bit set.
func (l *lexer) scanPlain() (high bool) {
	const (
		ones  = 0x0101010101010101
		highs = 0x8080808080808080
	)
	data, pos := l.data, l.pos
	var seen uint64
	for len(data)-pos >= 8 {
		w := binary.LittleEndian.Uint64(data[pos:])
		// The classic zero-byte test, (x-ones) &^ x & highs, on w xor-ed
		// with each byte sought, and its less-than form for bytes below
		// 0x20; the three share &^ w because neither xor touches a high
		// bit. A borrow can only flag a byte above a true hit, so the
		// lowest flag is exact.
		q, b := w^(ones*'"'), w^(ones*'\\')
		if stop := ((q - ones) | (b - ones) | (w - ones*0x20)) &^ w & highs; stop != 0 {
			l.pos = pos + bits.TrailingZeros64(stop)>>3
			// stop ^ (stop-1) covers the word up to the stopping byte,
			// whose own high bit is clear.
			return (seen|w&(stop^(stop-1)))&highs != 0
		}
		seen |= w
		pos += 8
	}
	for ; pos < len(data); pos++ {
		c := data[pos]
		if c == '"' || c == '\\' || c < 0x20 {
			break
		}
		seen |= uint64(c)
	}
	l.pos = pos
	return seen&highs != 0
}

// readEscape consumes what follows a backslash and returns the rune it
// denotes; for \uXXXX that is the bare UTF-16 code unit, surrogates
// included, which only readString goes on to pair.
func (l *lexer) readEscape() (rune, error) {
	if l.pos >= len(l.data) {
		return 0, l.errf("truncated escape")
	}
	e := l.data[l.pos]
	l.pos++
	switch e {
	case '"', '\\', '/':
		return rune(e), nil
	case 'b':
		return '\b', nil
	case 'f':
		return '\f', nil
	case 'n':
		return '\n', nil
	case 'r':
		return '\r', nil
	case 't':
		return '\t', nil
	case 'u':
		return l.readHex4()
	}
	return 0, l.errf("bad escape \\%c", e)
}

// peekEscapedHex4 reads a \uXXXX escape starting at pos without consuming
// it, reporting false when the next bytes are not a well-formed escape.
func (l *lexer) peekEscapedHex4() (rune, bool) {
	if len(l.data)-l.pos < 6 || l.data[l.pos] != '\\' || l.data[l.pos+1] != 'u' {
		return 0, false
	}
	var r rune
	for i := 2; i < 6; i++ {
		c := l.data[l.pos+i]
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return 0, false
		}
	}
	return r, true
}

// readHex4 parses four hex digits at pos.
func (l *lexer) readHex4() (rune, error) {
	if len(l.data)-l.pos < 4 {
		return 0, l.errf("truncated \\u escape")
	}
	var r rune
	for i := 0; i < 4; i++ {
		c := l.data[l.pos+i]
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return 0, l.errf("bad \\u escape")
		}
	}
	l.pos += 4
	return r, nil
}

// readInt64 parses a plain integer token. Fractional or exponent forms fail
// here exactly as encoding/json fails to unmarshal them into an int64.
func (l *lexer) readInt64() (int64, error) {
	l.skipWS()
	start := l.pos
	neg := false
	if l.pos < len(l.data) && l.data[l.pos] == '-' {
		neg = true
		l.pos++
	}
	// Accumulate in the negative domain so MinInt64 parses.
	var n int64
	digits := 0
	first := l.pos
	for l.pos < len(l.data) {
		c := l.data[l.pos]
		if c < '0' || c > '9' {
			break
		}
		d := int64(c - '0')
		if n < (math.MinInt64+d)/10 {
			return 0, l.errf("integer overflow")
		}
		n = n*10 - d
		digits++
		l.pos++
	}
	if digits == 0 {
		l.pos = start
		return 0, l.errf("expected integer")
	}
	if digits > 1 && l.data[first] == '0' {
		// JSON forbids leading zeros; stay as strict as encoding/json so
		// corrupt payloads fail loudly instead of decoding quietly.
		l.pos = start
		return 0, l.errf("leading zero in number")
	}
	if l.pos < len(l.data) {
		switch l.data[l.pos] {
		case '.', 'e', 'E':
			l.pos = start
			return 0, l.errf("non-integer number")
		}
	}
	if neg {
		return n, nil
	}
	if n == math.MinInt64 {
		return 0, l.errf("integer overflow")
	}
	return -n, nil
}

// readUint32 parses an integer and range-checks it like encoding/json does
// for uint32 fields.
func (l *lexer) readUint32() (uint32, error) {
	n, err := l.readInt64()
	if err != nil {
		return 0, err
	}
	if n < 0 || n > math.MaxUint32 {
		return 0, l.errf("number out of uint32 range")
	}
	return uint32(n), nil
}

// readBool parses true or false.
func (l *lexer) readBool() (bool, error) {
	switch l.peek() {
	case 't':
		return true, l.lit("true")
	case 'f':
		return false, l.lit("false")
	}
	return false, l.errf("expected boolean")
}

// maxSkipDepth bounds skipValue recursion; encoding/json enforces a
// comparable nesting limit.
const maxSkipDepth = 200

// skipValue consumes one JSON value of any shape.
func (l *lexer) skipValue(depth int) error {
	if depth > maxSkipDepth {
		return l.errf("value nested too deeply")
	}
	switch l.peek() {
	case '"':
		return l.skipString()
	case '{':
		return l.object(func([]byte) error { return l.skipValue(depth + 1) })
	case '[':
		return l.array(func() error { return l.skipValue(depth + 1) })
	case 't':
		return l.lit("true")
	case 'f':
		return l.lit("false")
	case 'n':
		return l.lit("null")
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		return l.skipNumber()
	case 0:
		return l.errf("unexpected end of input")
	default:
		return l.errf("unexpected character %q", string(l.data[l.pos]))
	}
}

// skipNumber consumes a full JSON number token, enforcing the RFC 8259
// grammar (no leading zeros, digits required after '.' and the exponent
// sign) exactly as encoding/json does, so corruption in skipped fields
// still fails the decode.
func (l *lexer) skipNumber() error {
	digits := func() int {
		n := 0
		for l.pos < len(l.data) && l.data[l.pos] >= '0' && l.data[l.pos] <= '9' {
			l.pos++
			n++
		}
		return n
	}
	if l.pos < len(l.data) && l.data[l.pos] == '-' {
		l.pos++
	}
	switch {
	case l.pos >= len(l.data):
		return l.errf("truncated number")
	case l.data[l.pos] == '0':
		l.pos++
	default:
		if digits() == 0 {
			return l.errf("expected number")
		}
	}
	if l.pos < len(l.data) && l.data[l.pos] == '.' {
		l.pos++
		if digits() == 0 {
			return l.errf("digits required after decimal point")
		}
	}
	if l.pos < len(l.data) && (l.data[l.pos] == 'e' || l.data[l.pos] == 'E') {
		l.pos++
		if l.pos < len(l.data) && (l.data[l.pos] == '+' || l.data[l.pos] == '-') {
			l.pos++
		}
		if digits() == 0 {
			return l.errf("digits required in exponent")
		}
	}
	return nil
}

// trailing errors unless only whitespace remains, matching
// encoding/json.Unmarshal's rejection of trailing garbage.
func (l *lexer) trailing() error {
	// Not peek: it reports the end of input as a zero byte, and a zero byte
	// after the value is trailing garbage.
	l.skipWS()
	if l.pos < len(l.data) {
		return l.errf("trailing data after value")
	}
	return nil
}

// foldEq reports whether key equals name under ASCII case folding.
func foldEq(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	for i := 0; i < len(name); i++ {
		a, b := key[i], name[i]
		if a == b {
			continue
		}
		if 'A' <= a && a <= 'Z' {
			a += 'a' - 'A'
		}
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		if a != b {
			return false
		}
	}
	return true
}

// skipUnknown consumes the value of a key the shape does not name — unless
// the key is one of names in non-canonical casing, which it refuses.
// encoding/json matches keys case-insensitively as a fallback; the fast
// scanner stays exact-match (the repo's encoders always emit canonical
// keys), and this check routes the rare differently-cased payload to the
// stdlib fallback instead of silently zeroing the field. A key with a
// non-ASCII byte goes the same way unexamined: encoding/json folds by
// Unicode simple folding, under which U+017F and U+212A are an s and a k.
func (l *lexer) skipUnknown(key []byte, names []string) error {
	for _, c := range key {
		if c >= utf8.RuneSelf {
			return l.errf("non-ASCII key %q", key)
		}
	}
	for _, n := range names {
		if foldEq(key, n) {
			return l.errf("non-canonical key casing %q", key)
		}
	}
	return l.skipValue(0)
}

// object reads an object, handing each member's key to member once the
// colon is consumed; member reads the value. The key is a readString view:
// switch on it before reading anything else.
func (l *lexer) object(member func(key []byte) error) error {
	if err := l.expect('{'); err != nil {
		return err
	}
	if l.tryConsume('}') {
		return nil
	}
	for {
		key, err := l.readString()
		if err != nil {
			return err
		}
		if err := l.expect(':'); err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		if !l.tryConsume(',') {
			return l.expect('}')
		}
	}
}

// array reads an array, calling elem with the lexer at the start of each
// element.
func (l *lexer) array(elem func() error) error {
	if err := l.expect('['); err != nil {
		return err
	}
	if l.tryConsume(']') {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if !l.tryConsume(',') {
			return l.expect(']')
		}
	}
}

// first admits the first occurrence of a key whose value is an object, an
// array or a pointer (bit marks it in seen) and reports whether the value
// is still to be read: not when it is a null, which first consumes. A
// second occurrence is refused. encoding/json does not let the last one win
// there: it decodes the second value into whatever the first left (slice
// elements, map entries, the pointee), and a null resets it. The fast path
// leaves that merge to the fallback instead of imitating it — and on a
// first occurrence a null has nothing to reset.
func (l *lexer) first(seen *uint8, bit uint8) (read bool, err error) {
	if *seen&bit != 0 {
		return false, l.errf("repeated composite key")
	}
	*seen |= bit
	return !l.tryNull(), nil
}

// decodeInt64 reads an integer (or null, a no-op) into dst. A nil dst
// checks the value — grammar and range — and drops it.
func (l *lexer) decodeInt64(dst *int64) error {
	if l.tryNull() {
		return nil
	}
	n, err := l.readInt64()
	if err == nil && dst != nil {
		*dst = n
	}
	return err
}

// decodeUint32 is decodeInt64 for a uint32 field.
func (l *lexer) decodeUint32(dst *uint32) error {
	if l.tryNull() {
		return nil
	}
	n, err := l.readUint32()
	if err == nil && dst != nil {
		*dst = n
	}
	return err
}

// skipInt checks an unread value of an int field (or null).
func (l *lexer) skipInt() error {
	if l.tryNull() {
		return nil
	}
	n, err := l.readInt64()
	if err == nil && int64(int(n)) != n {
		return l.errf("number out of int range")
	}
	return err
}

// decodeBool reads a boolean (or null, a no-op) into dst; nil dst as in
// decodeInt64.
func (l *lexer) decodeBool(dst *bool) error {
	if l.tryNull() {
		return nil
	}
	v, err := l.readBool()
	if err == nil && dst != nil {
		*dst = v
	}
	return err
}
