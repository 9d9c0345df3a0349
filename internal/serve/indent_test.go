package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/progen"
)

// FuzzIndentCompact holds api.AppendIndent, the indenter behind every
// JSON body the daemon writes, to json.Indent: for any valid document,
// indenting its compact form must give exactly the bytes
// json.Indent(…, "", "  ") gives, which is what json.MarshalIndent
// emits for the value, and at a base depth d the bytes json.Indent
// gives with a prefix of d levels. The seeds are the daemon's and the
// wire format's goldens.
func FuzzIndentCompact(f *testing.F) {
	goldens, err := filepath.Glob("../api/testdata/wire*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range append([]string{"testdata/endpoints.json"}, goldens...) {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		var exchanges []map[string]json.RawMessage
		if err := json.Unmarshal(data, &exchanges); err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		for _, ex := range exchanges {
			for _, key := range []string{"body", "doc"} {
				if body, ok := ex[key]; ok {
					f.Add([]byte(body))
				}
			}
		}
	}
	for _, seed := range []string{
		`{}`, `[]`, `{"a":{},"b":[],"c":[{},[],[[]],{"d":{}}]}`, `[[[[{}]]]]`,
		`{"q":"say \"hi\"","b":"C:\\dir\\","u":"\u2028 and \u2029","raw":"` + "\u2028" + `"}`,
		`"\\"`, `["\\\"",":",",","{","}","[","]"]`, `-1.5e+10`, `true`, ` null `,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if !json.Valid(src) {
			return
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, src); err != nil {
			t.Fatal(err)
		}
		for _, depth := range []int{0, 1 + len(src)%20} {
			var want bytes.Buffer
			if err := json.Indent(&want, compact.Bytes(), strings.Repeat("  ", depth), "  "); err != nil {
				t.Fatal(err)
			}
			if got := api.AppendIndent(nil, compact.Bytes(), depth); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("AppendIndent(%q, %d):\n got %q\nwant %q", compact.Bytes(), depth, got, want.Bytes())
			}
		}
	})
}

// TestWriteJSONMatchesMarshalIndent pins the response bytes of a full
// analysis document, the largest body the daemon serves, to
// json.MarshalIndent's.
func TestWriteJSONMatchesMarshalIndent(t *testing.T) {
	p := progen.Generate(progen.TestProfile(40), progen.DefaultOptions(3))
	a, err := core.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	doc := api.RenderDoc(api.SchemaVersionV2, a, obs.NewMetrics().Snapshot())
	for _, v := range []any{doc, api.ErrorResponse{SchemaVersion: api.SchemaVersion, Error: `bad "x" <y>`}} {
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		New(Config{}).writeJSON(rec, "analyze", http.StatusOK, v)
		if got := rec.Body.Bytes(); !bytes.Equal(got, append(want, '\n')) {
			t.Errorf("%T: body differs from json.MarshalIndent output (%d vs %d bytes)", v, len(got), len(want)+1)
		}
	}
}
