package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"hfstream"
)

// strictly is the oracle FuzzDecodeBody holds decodeBody to, written the
// other way round: the whole input is one JSON value (json.Valid allows
// nothing else but whitespace around it) and that value has v's shape
// with no unknown field.
func strictly(data []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return json.Valid(data) && dec.Decode(v) == nil
}

// FuzzDecodeBody feeds arbitrary bytes to the one function that reads a
// request body, as both body shapes: it never panics, it accepts exactly
// the inputs that are one JSON value of the shape plus whitespace, and
// an accepted spec, encoded again, is accepted again and keys the same.
func FuzzDecodeBody(f *testing.F) {
	// TestBodyMustBeOneJSONValue's table, and the fields that are gone.
	for _, body := range []string{
		`{"bench":"wc","design":"HEAVYWT"}`,
		`{"benches":["wc"],"designs":["HEAVYWT"]}`,
		`{"bench":"wc","single":true}`,
		`{"benches":["*"],"designs":["*"],"single":true}`,
		`{"bench":"fft2","design":"HEAVYWT","stages":3}`,
		`{"benches":["fft2"],"designs":["HEAVYWT"],"stages":[3]}`,
	} {
		for _, tail := range []string{"", "\n", " \r\n\t\n", " trailing garbage", `{"bench":"nope"}`,
			"\n" + `{"bench":"wc","design":"HEAVYWT"}`, "]", " 0"} {
			f.Add([]byte(body + tail))
		}
	}
	for _, body := range []string{"", "null", "{", "[]", `"wc"`, `{"bench":1}`, `{"bench":"wc","bench":"fir"}`} {
		f.Add([]byte(body))
	}
	decode := func(data []byte, v any) error {
		r := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(data))
		return decodeBody(httptest.NewRecorder(), r, v)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxRequestBytes {
			return // the size cap has its own test; the oracle has none
		}
		var sweep, wantSweep SweepRequest
		if got, want := decode(data, &sweep) == nil, strictly(data, &wantSweep); got != want {
			t.Fatalf("sweep body %q: accepted=%v, want %v", data, got, want)
		}
		var spec, wantSpec hfstream.Spec
		if got, want := decode(data, &spec) == nil, strictly(data, &wantSpec); got != want {
			t.Fatalf("run body %q: accepted=%v, want %v", data, got, want)
		} else if !got {
			return
		}
		if spec != wantSpec {
			t.Fatalf("run body %q decoded to %+v, want %+v", data, spec, wantSpec)
		}
		again, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var spec2 hfstream.Spec
		if err := decode(again, &spec2); err != nil {
			t.Fatalf("re-encoded body %s rejected: %v", again, err)
		}
		k1, err1 := spec.Key()
		k2, err2 := spec2.Key()
		if k1 != k2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("body %q keys to %q (%v), re-encoded as %s to %q (%v)", data, k1, err1, again, k2, err2)
		}
	})
}
