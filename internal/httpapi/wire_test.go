package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"github.com/rlplanner/rlplanner"
)

// wireRequestTypes are the request shapes with a canonical-form
// decoder; each entry returns a fresh pointer to a zero value.
var wireRequestTypes = []func() any{
	func() any { return new(planRequest) },
	func() any { return new(batchRequest) },
	func() any { return new(feedbackRequest) },
}

// checkDecodeMatchesDecoder decodes body with decodeCanonical into each
// request type. Whenever the fast path accepts, json.Decoder must accept
// the same bytes and decode a reflect.DeepEqual value, and the decoded
// strings must not alias the body; whenever it refuses, the value must
// be left zero for the Decoder.
func checkDecodeMatchesDecoder(t *testing.T, body []byte) (accepted int) {
	t.Helper()
	for _, newReq := range wireRequestTypes {
		buf := append([]byte(nil), body...)
		fast := newReq()
		ok := decodeCanonical(buf, fast)
		for i := range buf {
			buf[i] = 'x' // a string still viewing the buffer would change
		}
		if !ok {
			if zero := newReq(); !reflect.DeepEqual(fast, zero) {
				t.Fatalf("%T: refused body %q left %+v, want the zero value", fast, body, fast)
			}
			continue
		}
		accepted++
		want := newReq()
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(want); err != nil {
			t.Fatalf("%T: fast path accepted %q, json.Decoder refused it: %v", fast, body, err)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("%T: body %q\nfast path: %#v\njson.Decoder: %#v", fast, body, fast, want)
		}
	}
	return accepted
}

// FuzzDecodeRequest checks the canonical-form decoder against
// json.Decoder on arbitrary bodies for all three hot request types.
func FuzzDecodeRequest(f *testing.F) {
	type perfbenchBody struct {
		Instance string   `json:"instance"`
		Episodes int      `json:"episodes,omitempty"`
		Seed     int64    `json:"seed,omitempty"`
		Start    string   `json:"start,omitempty"`
		User     string   `json:"user,omitempty"`
		Starts   []string `json:"starts,omitempty"`
		Items    []string `json:"items,omitempty"`
		Useful   *bool    `json:"useful,omitempty"`
	}
	useful := true
	for _, v := range []any{
		perfbenchBody{Instance: "catalog-8k", Episodes: 64, Starts: []string{"item-417"}},
		perfbenchBody{Instance: "Univ-1 M.S. DS-CT", User: "u1000017", Items: []string{"CS 675", "CS 636", "MATH 661"}, Useful: &useful},
		perfbenchBody{Instance: "Paris", Seed: 3, Start: "musée d'orsay", User: "u42"},
		perfbenchBody{Instance: "Univ-2 M.S. DS", Items: []string{"MS&E 237", "MS&E 108", "MS&E 231"}, Useful: &useful, User: "u1"},
		perfbenchBody{Instance: "Paris", Starts: []string{"sacré-cœur", "église st-germain des prés", "hôtel de ville"}},
		planRequest{Instance: "NYC", Engine: "qlearning", Episodes: -3, Seed: -9, MinSim: true, Time: 5.5, Distance: 1e-7, Baseline: "gold", User: "<u&>"},
	} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		`{"instance":"a","episodes":-0,"seed":-9223372036854775808,"time_limit_hours":-0.0,"max_distance_km":1E+2}`,
		`{"episodes":1.5}`, `{"episodes":1e2}`, `{"seed":9223372036854775808}`, `{"episodes":01}`,
		`{"time_limit_hours":1e400}`, `{"rating":4.5,"rate":0.25}`, `{"rating":-1e-400}`,
		`{"instance":"a","instance":"b"}`, `{"starts":["a"],"starts":["b"]}`,
		`{"instance":null}`, `{"useful":null}`, `{"starts":["a",null]}`, `null`, `{}`, ``, ` `,
		`{"instance":"a"} trailing`, `{"instance":"a"}{`, `{"instance":"a"`, `{"instance":"a",}`,
		`{"Instance":"a"}`, `{"INSTANCE":"a"}`, `{"instance":"a","bogus":1}`, `{"instance":"a"}`,
		" \t\n{ \"instance\" : \"a\" ,\r\"starts\" : [ ] , \"items\":[ \"x\" , \"y\" ] } ",
		`{"instance":"é😀\ud800x\udc00\n\\\"\/\b\f\r\t\u0000"}`,
		`{"instance":"\ud800A"}`, `{"instance":"\u12"}`, `{"instance":"\x"}`,
		"{\"instance\":\"\xff\"}", "{\"instance\":\"\xed\xa0\x80\"}", "{\"instance\":\"a\nb\"}",
		`{"min_sim":true,"useful":false}`, `{"min_sim":tru}`, `{"min_sim":1}`, `{"instance":5}`,
		`{"items":"a"}`, `{"useful":"true"}`, `[{"instance":"a"}]`, "\ufeff{}",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeMatchesDecoder(t, body)
	})
}

// fillRandom sets every field of v, recursively and through pointers
// and slices, to a random value of its kind, zero now and then so that
// omitempty and nil are exercised. A field of a kind it does not know
// fails the test: the hand-written codecs must then learn it too.
func fillRandom(t *testing.T, rng *rand.Rand, v reflect.Value, str func() string, flt func() float64) {
	t.Helper()
	zero := rng.Intn(5) == 0
	switch v.Kind() {
	case reflect.String:
		if !zero {
			v.SetString(str())
		}
	case reflect.Bool:
		v.SetBool(!zero && rng.Intn(2) == 0)
	case reflect.Int, reflect.Int64:
		if !zero {
			v.SetInt(rng.Int63() >> rng.Intn(63) * int64(1-2*rng.Intn(2)))
		}
	case reflect.Uint64:
		if !zero {
			v.SetUint(rng.Uint64() >> rng.Intn(64))
		}
	case reflect.Float64:
		if !zero {
			v.SetFloat(flt())
		}
	case reflect.Pointer:
		if !zero {
			v.Set(reflect.New(v.Type().Elem()))
			fillRandom(t, rng, v.Elem(), str, flt)
		}
	case reflect.Slice:
		if zero {
			return
		}
		n := rng.Intn(4)
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			fillRandom(t, rng, v.Index(i), str, flt)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(t, rng, v.Field(i), str, flt)
		}
	default:
		t.Fatalf("fillRandom: no case for %s (%s)", v.Type(), v.Kind())
	}
}

// wireStrings covers every escape class of encoding/json's string
// encoder: HTML characters, quotes and backslashes, every control byte
// form, U+2028/U+2029, invalid UTF-8 (a stray byte, a truncated
// sequence, a UTF-8-encoded surrogate), multi-byte runes and ids from
// the built-in catalogs.
var wireStrings = []string{
	"", "plain", "MS&E 237", "<script>", "a>b", `"quoted"`, `back\slash`,
	"\b\f\n\r\t", "\x00\x01\x1f\x7f", "line\u2028para\u2029", "\xff", "a\xe2\x80", "\xed\xa0\x80",
	"musée d'orsay", "sacré-cœur", "😀", "\ufffd", "/slash/",
}

func randomWireString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(3); n >= 0; n-- {
		if rng.Intn(4) == 0 {
			for k := rng.Intn(6); k > 0; k-- {
				b.WriteByte(byte(rng.Intn(256)))
			}
			continue
		}
		b.WriteString(wireStrings[rng.Intn(len(wireStrings))])
	}
	return b.String()
}

// wireFloats covers encoding/json's float cut-offs (1e-6 and 1e21 on
// both sides, where 'f' turns to 'e' and e-07 is written e-7), −0, the
// extremes and the values it refuses.
var wireFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 2.5, 1e-6, 9.999999e-7, 1e-7, -1e-7, 1e-9, 1e-10, 1e-100,
	1e20, 1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 123456789012345678, 5e-324, math.MaxFloat64,
	math.SmallestNonzeroFloat64, 3.14159e-5, 0.000001234,
}

func randomWireFloat(rng *rand.Rand, refused bool) float64 {
	switch k := rng.Intn(40); {
	case k == 0 && refused:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
	case k < 15:
		return wireFloats[rng.Intn(len(wireFloats))]
	case k < 25:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
	default:
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
}

// TestWireEncodeMatchesEncodingJSON fills every field of the three
// appended response types with random values and requires encodeJSON to
// write exactly what json.Encoder.Encode writes, and to refuse exactly
// what it refuses. encoding/json emits any field added to these structs
// later, so the test also catches drift between the structs and the
// hand-written encoders.
func TestWireEncodeMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	str := func() string { return randomWireString(rng) }
	flt := func() float64 { return randomWireFloat(rng, true) }
	var refused int
	for i := 0; i < 3000; i++ {
		var v any
		switch i % 4 {
		case 0:
			var r *planResponse
			fillRandom(t, rng, reflect.ValueOf(&r).Elem(), str, flt)
			v = r
		case 1:
			r := &planResponse{}
			fillRandom(t, rng, reflect.ValueOf(r).Elem(), str, flt)
			v = r
		case 2:
			var r batchResponse
			fillRandom(t, rng, reflect.ValueOf(&r).Elem(), str, flt)
			v = r
		case 3:
			var r feedbackResponse
			fillRandom(t, rng, reflect.ValueOf(&r).Elem(), str, flt)
			v = r
		}
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(v)
		prefix := []byte("prefix")
		got, err := encodeJSON(prefix, v)
		if wantErr != nil {
			refused++
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("value %#v: encodeJSON error %v, encoding/json error %v", v, err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("value %#v: encodeJSON refused it (%v), encoding/json wrote %s", v, err, want.Bytes())
		}
		if !bytes.Equal(got, append(prefix, want.Bytes()...)) {
			t.Fatalf("value %#v\nencodeJSON:    %s\nencoding/json: %s", v, got[len(prefix):], want.Bytes())
		}
	}
	if refused == 0 {
		t.Fatal("no value carried a NaN or an infinity")
	}

	// A refused value still ends in the same clean 500.
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, &planResponse{Plan: &rlplanner.Plan{Score: math.NaN()}})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "response encoding failed") {
		t.Fatalf("NaN score: status %d body %q, want the 500 encoding failure", rec.Code, rec.Body)
	}
}

// TestWireDecodeAcceptsMarshaledRequests marshals randomly filled
// request values, every field set now and then and every string escape
// class among the values, and requires the fast path to take the
// result, compact and indented, and decode it back to the marshaled
// value, as json.Decoder does.
func TestWireDecodeAcceptsMarshaledRequests(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	valid := func() string { return strings.ToValidUTF8(randomWireString(rng), "\ufffd") }
	flt := func() float64 { return randomWireFloat(rng, false) }
	for i := 0; i < 3000; i++ {
		v := wireRequestTypes[i%len(wireRequestTypes)]()
		fillRandom(t, rng, reflect.ValueOf(v).Elem(), valid, flt)
		// json.Marshal writes null for a nil slice without omitempty,
		// and null leaves the fast path by design.
		switch r := v.(type) {
		case *batchRequest:
			if r.Starts == nil {
				r.Starts = []string{}
			}
		case *feedbackRequest:
			if r.Items == nil {
				r.Items = []string{}
			}
		}
		compact, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(v, " ", "\t")
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range [][]byte{compact, indented} {
			got := reflect.New(reflect.TypeOf(v).Elem()).Interface()
			if !decodeCanonical(body, got) {
				t.Fatalf("%T: fast path refused json.Marshal's %s", v, body)
			}
			if !reflect.DeepEqual(got, v) {
				t.Fatalf("%T: body %s\ndecoded %#v\nwant    %#v", v, body, got, v)
			}
			checkDecodeMatchesDecoder(t, body)
		}
	}
}

// TestOversizedBodyRejected posts a body one byte over MaxBodyBytes to
// the plan, batch and feedback endpoints and requires 413 with the
// usual error body; a body at the cap and a 1024-start batch body are
// read and decoded as before.
func TestOversizedBodyRejected(t *testing.T) {
	h := New().Handler()
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	// pad returns {"instance":"no-such"} padded with spaces to n bytes.
	pad := func(n int) []byte {
		const head, tail = `{"instance":"no-such"`, `}`
		return []byte(head + strings.Repeat(" ", n-len(head)-len(tail)) + tail)
	}
	for _, path := range []string{"/api/plan", "/api/plan/batch", "/api/feedback"} {
		rec := post(path, pad(MaxBodyBytes+1))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: %d-byte body got %d %s, want 413", path, MaxBodyBytes+1, rec.Code, rec.Body)
		}
		var e map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
			t.Fatalf("%s: 413 body %q is not {\"error\": ...}", path, rec.Body)
		}
		if rec := post(path, pad(MaxBodyBytes)); rec.Code == http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: a body of exactly MaxBodyBytes got 413", path)
		}
	}
	starts := make([]string, MaxBatchItems)
	for i := range starts {
		starts[i] = fmt.Sprintf("start item %06d, about a hundred bytes of id per start........................", i)
	}
	body, err := json.Marshal(batchRequest{planRequest: planRequest{Instance: "no-such"}, Starts: starts})
	if err != nil {
		t.Fatal(err)
	}
	if rec := post("/api/plan/batch", body); rec.Code != http.StatusNotFound {
		t.Fatalf("%d-byte %d-start batch: status %d %s, want 404 for the unknown instance", len(body), len(starts), rec.Code, rec.Body)
	}

	// The two uploads are capped at MaxUploadBytes instead. Their bodies
	// stream from fillReader; the import body is a gob message declaring
	// MaxUploadBytes bytes (a negated byte count, -4, then the count big
	// endian) followed by zeros.
	importPath := "/api/policies/import?instance=" + url.QueryEscape(instName)
	gobHead := []byte{0xfc, MaxUploadBytes >> 24, 0, 0, 0}
	for _, tc := range []struct {
		path string
		body io.Reader
		code int
	}{
		{"/api/instances", io.MultiReader(strings.NewReader(`{"name":"big"`),
			io.LimitReader(fillReader(' '), MaxUploadBytes), strings.NewReader("}")), http.StatusRequestEntityTooLarge},
		{importPath, io.MultiReader(bytes.NewReader(gobHead),
			io.LimitReader(fillReader(0), MaxUploadBytes)), http.StatusRequestEntityTooLarge},
		// Exactly MaxUploadBytes: the message is cut short, a 400.
		{importPath, io.MultiReader(bytes.NewReader(gobHead),
			io.LimitReader(fillReader(0), MaxUploadBytes-int64(len(gobHead)))), http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, tc.body))
		var e map[string]string
		if rec.Code != tc.code || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e["error"] == "" {
			t.Fatalf("%s: got %d %s, want %d with an {\"error\": ...} body", tc.path, rec.Code, rec.Body, tc.code)
		}
	}
}

// fillReader reads an endless run of one byte.
type fillReader byte

func (f fillReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestBodyReadErrorReachesDecoder feeds request bodies whose read fails
// part-way: the error must end the request as it did when json.Decoder
// read the body itself — a 400 naming the read error when the value is
// incomplete, and no error at all when the value was complete.
func TestBodyReadErrorReachesDecoder(t *testing.T) {
	h := New().Handler()
	boom := errors.New("connection reset mid-body")
	for _, tc := range []struct {
		body string
		code int
		msg  string
	}{
		{`{"instance":"Univ-1 M.S. DS-CT", "starts": [`, http.StatusBadRequest, boom.Error()},
		{`{"instance":"no-such","starts":["a"]}`, http.StatusNotFound, "no-such"},
	} {
		req := httptest.NewRequest(http.MethodPost, "/api/plan/batch", nil)
		req.Body = io.NopCloser(io.MultiReader(strings.NewReader(tc.body), errReader{boom}))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.code || !strings.Contains(rec.Body.String(), tc.msg) {
			t.Fatalf("body %q then a read error: status %d %s, want %d naming %q", tc.body, rec.Code, rec.Body, tc.code, tc.msg)
		}
	}
}

// TestWireFallbackCounter shows wire_decode_fallbacks_total counting a
// hot-endpoint body that left the fast path (an unknown key) and not a
// canonical one.
func TestWireFallbackCounter(t *testing.T) {
	h := New().Handler()
	fallbacks := func() float64 {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/metrics", nil))
		var m map[string]float64
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		v, ok := m["wire_decode_fallbacks_total"]
		if !ok {
			t.Fatal("/api/metrics has no wire_decode_fallbacks_total")
		}
		return v
	}
	post := func(body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/plan", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s: status %d %s", body, rec.Code, rec.Body)
		}
	}
	post(`{"instance":"Univ-1 M.S. DS-CT","engine":"gold"}`)
	if n := fallbacks(); n != 0 {
		t.Fatalf("after a canonical body: %v fallbacks, want 0", n)
	}
	post(`{"instance":"Univ-1 M.S. DS-CT","engine":"gold","client":"python"}`)
	if n := fallbacks(); n != 1 {
		t.Fatalf("after a body with an unknown key: %v fallbacks, want 1", n)
	}
}
