// Request bodies and hot responses on the wire (DESIGN §16): the body
// reader every JSON handler shares, a canonical-form decoder for the
// plan, batch and feedback requests with json.Decoder as its fallback on
// the same bytes, and appenders that write the plan, batch and feedback
// responses byte for byte as json.Encoder does. The struct tags remain
// the schema; wire_test.go holds the hand-written code to them.
package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// MaxBodyBytes caps the body of every JSON endpoint; a larger body is
// answered 413. A 1024-start batch body is about 100 KB. The two upload
// endpoints, POST /api/instances and POST /api/policies/import, read
// their bodies uncapped.
const MaxBodyBytes = 1 << 20

// wireBufs pools the buffers request bodies are read into and responses
// are encoded into: at tens of thousands of requests per second, fresh
// buffers are a measurable slice of the request's allocations and GC
// pressure. Buffers that grew past wireBufMax (a large batch, an
// instance dump) are dropped instead of pooled so one large message
// cannot pin megabytes for the rest of the process.
var wireBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

const wireBufMax = 64 << 10

func getWireBuf() *[]byte {
	p := wireBufs.Get().(*[]byte)
	*p = (*p)[:0]
	return p
}

func putWireBuf(p *[]byte) {
	if cap(*p) <= wireBufMax {
		wireBufs.Put(p)
	}
}

// decodeBody reads r's body and decodes it into v, a pointer to a
// request struct. It answers the request itself when it cannot — 413
// past MaxBodyBytes, 400 for what json.Decoder rejects — and reports
// whether the handler should go on.
//
// A hot request type in canonical form is decoded by decodeCanonical;
// every other body is decoded by json.Decoder from the same bytes into
// a zeroed value and counted in wire_decode_fallbacks_total when its
// type has a canonical form. A read error other than the cap reaches
// the Decoder after the bytes read before it, so the request ends as it
// did when the Decoder read the body itself.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	p := getWireBuf()
	defer putWireBuf(p)
	body, err := readBody(*p, http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	*p = body
	if err == nil && decodeCanonical(body, v) {
		return true
	}
	var src io.Reader = bytes.NewReader(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
			return false
		}
		src = io.MultiReader(src, errReader{err})
	}
	if hasCanonical(v) {
		s.wireFallbacks.Add(1)
	}
	if err := json.NewDecoder(src).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// readBody appends everything r yields to b, as io.ReadAll does; the
// error is nil at EOF.
func readBody(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// errReader replays a body's read error after its bytes.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// hasCanonical reports whether v's type has a canonical-form decoder.
func hasCanonical(v any) bool {
	switch v.(type) {
	case *planRequest, *batchRequest, *feedbackRequest:
		return true
	}
	return false
}

// decodeCanonical decodes body into v when v is a *planRequest,
// *batchRequest or *feedbackRequest and body is in canonical form, and
// otherwise leaves v zero and reports false. Canonical form is exactly
// one object (anything after its closing brace is ignored, as
// Decoder.Decode ignores it) whose keys are the struct tags' names,
// spelled exactly and each at most once, and whose values have the
// field's JSON type: strings of valid UTF-8 with no control byte
// (escapes are decoded as encoding/json decodes them), numbers that
// strconv parses without error (integers only for episodes and seed),
// true and false. An unknown or case-folded key, a repeated key, null,
// an out-of-range number and anything malformed leave the fast path;
// json.Decoder then decides, on the same bytes.
func decodeCanonical(body []byte, v any) bool {
	d := wireDecoder{b: body}
	switch v := v.(type) {
	case *planRequest:
		if d.object(func(key []byte) bool { return d.planField(key, v) }) {
			return true
		}
		*v = planRequest{}
	case *batchRequest:
		if d.object(func(key []byte) bool {
			if string(key) == "starts" {
				return d.once(fieldStarts) && d.strings(&v.Starts)
			}
			return d.planField(key, &v.planRequest)
		}) {
			return true
		}
		*v = batchRequest{}
	case *feedbackRequest:
		if d.object(func(key []byte) bool { return d.feedbackField(key, v) }) {
			return true
		}
		*v = feedbackRequest{}
	}
	return false
}

// Field bits for wireDecoder.once: one per key of the three request
// shapes.
const (
	fieldInstance = iota
	fieldEngine
	fieldEpisodes
	fieldSeed
	fieldStart
	fieldMinSim
	fieldTime
	fieldDistance
	fieldBaseline
	fieldUser
	fieldStarts
	fieldItems
	fieldUseful
	fieldRating
	fieldRate
)

// wireDecoder scans one canonical-form body. Every string it returns
// is a copy, never a view of the pooled body buffer.
type wireDecoder struct {
	b    []byte
	i    int
	seen uint32 // field bits of the keys decoded so far
}

// once marks a field seen and reports whether it was not seen before.
func (d *wireDecoder) once(field uint) bool {
	bit := uint32(1) << field
	if d.seen&bit != 0 {
		return false
	}
	d.seen |= bit
	return true
}

func (d *wireDecoder) planField(key []byte, r *planRequest) bool {
	switch string(key) {
	case "instance":
		return d.once(fieldInstance) && d.str(&r.Instance)
	case "engine":
		return d.once(fieldEngine) && d.str(&r.Engine)
	case "episodes":
		n, ok := d.integer(strconv.IntSize)
		r.Episodes = int(n)
		return ok && d.once(fieldEpisodes)
	case "seed":
		n, ok := d.integer(64)
		r.Seed = n
		return ok && d.once(fieldSeed)
	case "start":
		return d.once(fieldStart) && d.str(&r.Start)
	case "min_sim":
		return d.once(fieldMinSim) && d.boolean(&r.MinSim)
	case "time_limit_hours":
		return d.once(fieldTime) && d.float(&r.Time)
	case "max_distance_km":
		return d.once(fieldDistance) && d.float(&r.Distance)
	case "baseline":
		return d.once(fieldBaseline) && d.str(&r.Baseline)
	case "user":
		return d.once(fieldUser) && d.str(&r.User)
	}
	return false
}

func (d *wireDecoder) feedbackField(key []byte, r *feedbackRequest) bool {
	switch string(key) {
	case "items":
		return d.once(fieldItems) && d.strings(&r.Items)
	case "useful":
		var b bool
		if !d.once(fieldUseful) || !d.boolean(&b) {
			return false
		}
		r.Useful = &b
		return true
	case "rating":
		var f float64
		if !d.once(fieldRating) || !d.float(&f) {
			return false
		}
		r.Rating = &f
		return true
	case "rate":
		return d.once(fieldRate) && d.float(&r.Rate)
	}
	return d.planField(key, &r.planRequest)
}

// object scans one object, handing each key to field, which scans the
// value that follows the colon.
func (d *wireDecoder) object(field func(key []byte) bool) bool {
	d.space()
	if !d.eat('{') {
		return false
	}
	d.space()
	if d.eat('}') {
		return true
	}
	for {
		key, ok := d.key()
		if !ok {
			return false
		}
		d.space()
		if !d.eat(':') {
			return false
		}
		d.space()
		if !field(key) {
			return false
		}
		d.space()
		if d.eat('}') {
			return true
		}
		if !d.eat(',') {
			return false
		}
		d.space()
	}
}

// key scans a key: a string of ASCII bytes from space up with no
// escape, which every key a field matches exactly is.
func (d *wireDecoder) key() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	start := d.i
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], true
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

func (d *wireDecoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

func (d *wireDecoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *wireDecoder) boolean(dst *bool) bool {
	rest := d.b[d.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst = true
		d.i += 4
	case bytes.HasPrefix(rest, []byte("false")):
		*dst = false
		d.i += 5
	default:
		return false
	}
	return true
}

// number scans a number in JSON grammar and returns its literal (nil
// when there is none) and whether it has neither fraction nor exponent.
func (d *wireDecoder) number() (lit []byte, integer bool) {
	b, i := d.b, d.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		digits()
	default:
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	lit, d.i = b[d.i:i], i
	return lit, integer
}

// integer scans an integer literal that fits in bits, as the Decoder
// parses one into an int field.
func (d *wireDecoder) integer(bits int) (int64, bool) {
	lit, integer := d.number()
	if !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	return n, err == nil
}

// float scans a number as the Decoder parses one into a float64 field.
func (d *wireDecoder) float(dst *float64) bool {
	lit, _ := d.number()
	if lit == nil {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}

// str scans a string into dst.
func (d *wireDecoder) str(dst *string) bool {
	var buf [64]byte
	b, ok := d.appendStr(buf[:0])
	if ok {
		*dst = string(b)
	}
	return ok
}

// appendStr scans a string and appends its value to dst, decoding each
// escape as encoding/json's unquote does: a \u escape of half a
// surrogate pair that the next \u escape does not complete decodes to
// U+FFFD.
func (d *wireDecoder) appendStr(dst []byte) ([]byte, bool) {
	if !d.eat('"') {
		return dst, false
	}
	b, i := d.b, d.i
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return dst, true
		case c == '\\':
			if i+1 == len(b) {
				return dst, false
			}
			switch e := b[i+1]; e {
			case '"', '\\', '/':
				dst = append(dst, e)
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(b[i:])
				if r < 0 {
					return dst, false
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if pair := utf16.DecodeRune(r, hex4(b[i:])); pair != utf8.RuneError {
						r = pair
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default:
				return dst, false
			}
			i += 2
		case c < ' ':
			return dst, false
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, n := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && n == 1 {
				return dst, false
			}
			dst = append(dst, b[i:i+n]...)
			i += n
		}
	}
	return dst, false
}

// hex4 reads the \uXXXX escape b starts with, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// strings scans an array of strings into dst; [] decodes to an empty,
// non-nil slice, as the Decoder leaves it. The elements share one
// backing string, one allocation for the lot.
func (d *wireDecoder) strings(dst *[]string) bool {
	if !d.eat('[') {
		return false
	}
	var buf [512]byte
	var endBuf [32]int
	b, ends := buf[:0], endBuf[:0]
	d.space()
	if !d.eat(']') {
		for {
			var ok bool
			if b, ok = d.appendStr(b); !ok {
				return false
			}
			ends = append(ends, len(b))
			d.space()
			if d.eat(']') {
				break
			}
			if !d.eat(',') {
				return false
			}
			d.space()
		}
	}
	all, out, start := string(b), make([]string, len(ends)), 0
	for i, end := range ends {
		out[i], start = all[start:end], end
	}
	*dst = out
	return true
}

// encodeJSON appends v and a newline to b, as json.Encoder.Encode
// writes them (HTML escaping on). *planResponse, batchResponse and
// feedbackResponse are appended directly; every other value goes
// through encoding/json.
func encodeJSON(b []byte, v any) ([]byte, error) {
	e := wireEncoder{b: b}
	switch v := v.(type) {
	case *planResponse:
		e.planResponse(v)
	case batchResponse:
		e.batchResponse(v)
	case feedbackResponse:
		e.feedbackResponse(v)
	default:
		buf := bytes.NewBuffer(b)
		err := json.NewEncoder(buf).Encode(v)
		return buf.Bytes(), err
	}
	if e.err != nil {
		return b, e.err
	}
	return append(e.b, '\n'), nil
}

// wireEncoder appends one response; err holds the first value
// encoding/json would refuse.
type wireEncoder struct {
	b   []byte
	err error
}

func (e *wireEncoder) raw(s string) { e.b = append(e.b, s...) }

func (e *wireEncoder) int(n int64) { e.b = strconv.AppendInt(e.b, n, 10) }

func (e *wireEncoder) bool(v bool) { e.b = strconv.AppendBool(e.b, v) }

// float appends f in encoding/json's form: the shortest repr, 'f'
// between 1e-6 and 1e21 and 'e' (with e-07 written e-7) outside; NaN
// and ±Inf are refused with its error.
func (e *wireEncoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	e.b = b
}

// wireSafe marks the ASCII bytes encoding/json writes unescaped with
// HTML escaping on: space and up, but for ", \, <, > and &.
var wireSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := byte(' '); c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// str appends s quoted as encoding/json quotes it with HTML escaping:
// ", \, <, >, & and control bytes escaped, invalid UTF-8 written
// \ufffd, and U+2028 and U+2029 escaped.
func (e *wireEncoder) str(s string) {
	const hex = "0123456789abcdef"
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if wireSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	e.b = append(append(b, s[start:]...), '"')
}

// strs appends a string slice; nil is null.
func (e *wireEncoder) strs(ss []string) {
	if ss == nil {
		e.raw("null")
		return
	}
	e.b = append(e.b, '[')
	for i, s := range ss {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.str(s)
	}
	e.b = append(e.b, ']')
}

// planResponse appends r with its embedded Plan's fields first, none of
// them when Plan is nil.
func (e *wireEncoder) planResponse(r *planResponse) {
	if r == nil {
		e.raw("null")
		return
	}
	e.raw("{")
	if p := r.Plan; p != nil {
		e.raw(`"Steps":`)
		if p.Steps == nil {
			e.raw("null")
		} else {
			e.raw("[")
			for i, st := range p.Steps {
				if i > 0 {
					e.raw(",")
				}
				e.raw(`{"ID":`)
				e.str(st.ID)
				e.raw(`,"Name":`)
				e.str(st.Name)
				e.raw(`,"Primary":`)
				e.bool(st.Primary)
				e.raw(`,"Credits":`)
				e.float(st.Credits)
				e.raw("}")
			}
			e.raw("]")
		}
		e.raw(`,"Score":`)
		e.float(p.Score)
		e.raw(`,"SatisfiesConstraints":`)
		e.bool(p.SatisfiesConstraints)
		e.raw(`,"Violations":`)
		e.strs(p.Violations)
		e.raw(`,"CoverageRatio":`)
		e.float(p.CoverageRatio)
		e.raw(`,"TotalCredits":`)
		e.float(p.TotalCredits)
		e.raw(",")
	}
	e.raw(`"served_by":`)
	e.str(r.ServedBy)
	e.raw(`,"degraded":`)
	e.bool(r.Degraded)
	if r.DegradedReason != "" {
		e.raw(`,"degraded_reason":`)
		e.str(r.DegradedReason)
	}
	if r.Personalized {
		e.raw(`,"personalized":true`)
	}
	e.raw("}")
}

func (e *wireEncoder) batchResponse(r batchResponse) {
	e.raw(`{"instance":`)
	e.str(r.Instance)
	e.raw(`,"engine":`)
	e.str(r.Engine)
	e.raw(`,"items":`)
	if r.Items == nil {
		e.raw("null")
	} else {
		e.raw("[")
		for i := range r.Items {
			if i > 0 {
				e.raw(",")
			}
			it := &r.Items[i]
			e.raw(`{"start":`)
			e.str(it.Start)
			if it.Plan != nil {
				e.raw(`,"plan":`)
				e.planResponse(it.Plan)
			}
			if it.Error != "" {
				e.raw(`,"error":`)
				e.str(it.Error)
			}
			if it.Status != 0 {
				e.raw(`,"status":`)
				e.int(int64(it.Status))
			}
			e.raw("}")
		}
		e.raw("]")
	}
	e.raw(`,"errors":`)
	e.int(int64(r.Errors))
	e.raw("}")
}

func (e *wireEncoder) feedbackResponse(r feedbackResponse) {
	e.raw(`{"user":`)
	e.str(r.User)
	e.raw(`,"applied":`)
	e.int(int64(r.Applied))
	e.raw(`,"overlay_cells":`)
	e.int(int64(r.OverlayCells))
	e.raw(`,"overlay_bytes":`)
	e.int(int64(r.OverlayBytes))
	e.raw(`,"overlay_evictions":`)
	e.b = strconv.AppendUint(e.b, r.Evictions, 10)
	e.raw("}")
}
