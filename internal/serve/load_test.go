package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/prog"
	"repro/internal/progen"
	"repro/internal/sxe"
)

// resealed returns an image body with its FNV-1a trailer appended.
func resealed(body []byte) []byte {
	sum := fnv.New32a()
	sum.Write(body)
	return binary.LittleEndian.AppendUint32(body, sum.Sum32())
}

// wantLoad is the reply decodeBody's json.Decoder leads to for a
// /v1/programs body: the status, and the program ID or error text.
func wantLoad(body []byte) (int, string) {
	var req api.LoadRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return http.StatusBadRequest, "decode: " + err.Error()
	}
	lp, err := New(Config{}).load(&req)
	if err != nil {
		return http.StatusBadRequest, "load: " + err.Error()
	}
	return http.StatusOK, lp.id
}

// gotLoad reads a /v1/programs reply as wantLoad states one.
func gotLoad(t *testing.T, status int, body []byte) (int, string) {
	t.Helper()
	if status == http.StatusOK {
		var resp api.LoadResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		return status, resp.Program.ID
	}
	var er api.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("error body is not JSON: %v\n%s", err, body)
	}
	return status, er.Error
}

// TestLoadBodyEquivalence posts /v1/programs bodies in and out of the
// bare form json.Marshal writes for an image upload. Only the bare form
// takes the direct base64 path; every body must get the status, program
// ID and error text that decoding it with json.Decoder leads to.
func TestLoadBodyEquivalence(t *testing.T) {
	image, err := sxe.Encode(progen.Generate(progen.TestProfile(12), progen.DefaultOptions(3)))
	if err != nil {
		t.Fatal(err)
	}
	b64 := base64.StdEncoding.EncodeToString(image)
	if !strings.Contains(b64, "/") {
		t.Fatal("the image's base64 has no '/' to escape")
	}
	marshaled, err := json.Marshal(api.LoadRequest{SXE: image})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), image...)
	corrupt[len(corrupt)/2] ^= 0x40
	half := len(b64) / 2 &^ 3
	sxeBody := func(s string) string { return `{"sxe":"` + s + `"}` }
	cases := []struct {
		name, body string
		bare       bool // the body takes the direct base64 path
	}{
		{"json.Marshal", string(marshaled), true},
		{"newline-terminated", sxeBody(b64) + "\n", true},
		{"corrupt image", sxeBody(base64.StdEncoding.EncodeToString(corrupt)), true},
		{"invalid base64", sxeBody("!!" + b64[2:]), true},
		{"whitespace around colon", `{"sxe" : "` + b64 + `"}`, false},
		{"path beside sxe", `{"path":"","sxe":"` + b64 + `"}`, false},
		{`\/ in the base64`, sxeBody(strings.ReplaceAll(b64, "/", `\/`)), false},
		{`escaped \n in the base64`, sxeBody(b64[:half] + `\n` + b64[half:]), false},
		{"raw LF in the base64", sxeBody(b64[:half] + "\n" + b64[half:]), false},
		{"raw CR in the base64", sxeBody(b64[:half] + "\r" + b64[half:]), false},
		{"bytes after the object", sxeBody(b64) + `{"asm":"x"}`, false},
		{"two newlines after the object", sxeBody(b64) + "\n\n", false},
		{"empty body", "", false},
		{"unterminated", `{"sxe":"` + b64, false},
	}
	_, c := newTestClient(t, Config{})
	for _, tc := range cases {
		if _, bare := bareImage([]byte(tc.body)); bare != tc.bare {
			t.Errorf("%s: taken as bare: %v, want %v", tc.name, bare, tc.bare)
		}
		wantStatus, want := wantLoad([]byte(tc.body))
		// Posted with its Content-Length, and chunked, with none.
		for _, body := range []io.Reader{strings.NewReader(tc.body), io.MultiReader(strings.NewReader(tc.body))} {
			r, err := c.hc.Post(c.base+"/v1/programs", "application/json", body)
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(r.Body)
			r.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if status, got := gotLoad(t, r.StatusCode, data); status != wantStatus || got != want {
				t.Errorf("%s: reply %d %q, want %d %q", tc.name, status, got, wantStatus, want)
			}
		}
	}
}

// TestLoadShortBody hands the handler bodies shorter than their
// declared length: what arrived is decoded as json.Decoder decodes it.
func TestLoadShortBody(t *testing.T) {
	image, err := sxe.Encode(prog.MustAssemble(testSrc))
	if err != nil {
		t.Fatal(err)
	}
	marshaled, err := json.Marshal(api.LoadRequest{SXE: image})
	if err != nil {
		t.Fatal(err)
	}
	h := New(Config{}).Handler()
	for _, body := range [][]byte{marshaled, marshaled[:len(marshaled)-2], nil} {
		req := httptest.NewRequest(http.MethodPost, "/v1/programs", bytes.NewReader(body))
		req.ContentLength = int64(len(body)) + 10
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		wantStatus, want := wantLoad(body)
		if status, got := gotLoad(t, rec.Code, rec.Body.Bytes()); status != wantStatus || got != want {
			t.Errorf("%d of %d declared bytes: reply %d %q, want %d %q",
				len(body), req.ContentLength, status, got, wantStatus, want)
		}
	}
}

// TestUploadDuplicateNames uploads a checksum-valid image whose two
// routines share a name: a typed 400, with nothing registered.
func TestUploadDuplicateNames(t *testing.T) {
	s, c := newTestClient(t, Config{})
	image, err := sxe.Encode(prog.MustAssemble(".routine main\n  jsr maim\n  halt\n.routine maim\n  ret\n"))
	if err != nil {
		t.Fatal(err)
	}
	body := image[:len(image)-4]
	i := bytes.Index(body, []byte("\x04maim"))
	if i < 0 {
		t.Fatal("no record named maim in the image")
	}
	copy(body[i+1:], "main")
	status, data := c.post("/v1/programs", api.LoadRequest{SXE: resealed(body)})
	const want = `load: sxe: routine 1: duplicate name "main"`
	if status, got := gotLoad(t, status, data); status != http.StatusBadRequest || got != want {
		t.Errorf("reply %d %q, want 400 %q", status, got, want)
	}
	if n := s.programs.len(); n != 0 {
		t.Errorf("%d programs registered, want 0", n)
	}
	if n := counterValue(t, s, "serve/program_loads"); n != 0 {
		t.Errorf("serve/program_loads = %d, want 0", n)
	}
}
