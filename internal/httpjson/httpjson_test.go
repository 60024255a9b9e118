package httpjson

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

type point struct {
	X int `json:"x"`
	Y int `json:"y"`
}

type shape struct {
	Name   string  `json:"name"`
	Points []point `json:"points"`
}

func TestDecode(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		ok         bool
	}{
		{"one value", `{"name":"a","points":[{"x":1,"y":2}]}`, true},
		{"trailing newline", "{\"name\":\"a\"}\n", true},
		{"surrounding whitespace", " \r\n\t{\"name\":\"a\"} \r\n\t", true},
		{"null", `null`, true},
		{"empty body", ``, false},
		{"whitespace only", " \n", false},
		{"truncated", `{"name":"a"`, false},
		{"unknown top-level field", `{"name":"a","colour":"red"}`, false},
		{"unknown nested field", `{"points":[{"x":1,"z":3}]}`, false},
		{"second value", `{"name":"a"}{"name":"b"}`, false},
		{"second value after newline", "{\"name\":\"a\"}\n{\"name\":\"b\"}\n", false},
		{"trailing junk", `{"name":"a"}x`, false},
		{"trailing closer", `{"name":"a"}]`, false},
		{"trailing comma", `{"name":"a"},`, false},
		{"trailing scalar", `{"name":"a"} 1`, false},
		{"wrong type", `[1,2]`, false},
		{"at the limit", `{"name":"` + strings.Repeat("a", 53) + `"}`, true},
		{"over the limit", `{"name":"` + strings.Repeat("a", 54) + `"}`, false},
		{"whitespace past the limit", `{"name":"a"}` + strings.Repeat(" ", 64), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s shape
			r := httptest.NewRequest("POST", "/", strings.NewReader(tc.body))
			err := Decode(httptest.NewRecorder(), r, 64, &s)
			if (err == nil) != tc.ok {
				t.Fatalf("Decode(%q) = %v, want ok=%v", tc.body, err, tc.ok)
			}
		})
	}
}

// TestDecodeReportsTooLarge: a body over the limit is reported as the
// http.MaxBytesError, also when only trailing whitespace crosses it.
func TestDecodeReportsTooLarge(t *testing.T) {
	for _, body := range []string{`{"name":"` + strings.Repeat("a", 64) + `"}`, `{}` + strings.Repeat(" ", 64)} {
		var s shape
		err := Decode(httptest.NewRecorder(), httptest.NewRequest("POST", "/", strings.NewReader(body)), 16, &s)
		var tooLarge *http.MaxBytesError
		if !errors.As(err, &tooLarge) {
			t.Errorf("Decode(%d bytes, limit 16) = %v, want *http.MaxBytesError", len(body), err)
		}
	}
}

func TestWriteAndError(t *testing.T) {
	rec := httptest.NewRecorder()
	Write(rec, http.StatusAccepted, map[string]string{"q": "<a&b>"})
	if rec.Code != http.StatusAccepted || rec.Header().Get("Content-Type") != "application/json" ||
		rec.Body.String() != "{\"q\":\"<a&b>\"}\n" {
		t.Fatalf("Write = %d %q %q", rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
	}
	rec = httptest.NewRecorder()
	Error(rec, http.StatusNotFound, "no %s for %q", "result", "k<1>")
	if rec.Code != http.StatusNotFound || rec.Body.String() != `{"error":"no result for \"k<1>\""}`+"\n" {
		t.Fatalf("Error = %d %q", rec.Code, rec.Body.String())
	}
}

func TestStreamSendsHeaderOnFirstLine(t *testing.T) {
	rec := httptest.NewRecorder()
	s := NewStream(rec)
	if s.Started() || rec.Header().Get("Content-Type") != "" {
		t.Fatal("stream sent its header before the first line")
	}
	for _, v := range []any{point{1, 2}, map[string]string{"h": "<&>"}} {
		if err := s.Send(v); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Started() || rec.Code != http.StatusOK || !rec.Flushed {
		t.Fatalf("started=%v code=%d flushed=%v", s.Started(), rec.Code, rec.Flushed)
	}
	if ct, xa := rec.Header().Get("Content-Type"), rec.Header().Get("X-Accel-Buffering"); ct != "application/x-ndjson" || xa != "no" {
		t.Fatalf("headers: Content-Type %q, X-Accel-Buffering %q", ct, xa)
	}
	if got := rec.Body.String(); got != "{\"x\":1,\"y\":2}\n{\"h\":\"<&>\"}\n" {
		t.Fatalf("body %q", got)
	}
}

// cutWriter accepts limit bytes, then fails every write.
type cutWriter struct {
	httptest.ResponseRecorder
	limit int
	tries int
}

func (c *cutWriter) Write(p []byte) (int, error) {
	c.tries++
	if len(p) > c.limit {
		return 0, errors.New("broken pipe")
	}
	c.limit -= len(p)
	return c.ResponseRecorder.Write(p)
}

// TestStreamKeepsFirstError: after a failed write, Send and Encoder
// write nothing more and return the first error.
func TestStreamKeepsFirstError(t *testing.T) {
	w := &cutWriter{ResponseRecorder: *httptest.NewRecorder(), limit: 20}
	s := NewStream(w)
	if err := s.Send(point{1, 2}); err != nil {
		t.Fatal(err)
	}
	first := s.Send(point{3, 4})
	if first == nil {
		t.Fatal("Send past the cut returned nil")
	}
	if err := s.Send(point{5, 6}); err != first {
		t.Fatalf("second Send after the cut = %v, want the first error %v", err, first)
	}
	if w.tries != 2 {
		t.Fatalf("%d writes attempted, want 2 (the line that fit and the failing one)", w.tries)
	}

	// Marshal errors stick too: nothing follows an unencodable value.
	w = &cutWriter{ResponseRecorder: *httptest.NewRecorder(), limit: 1 << 10}
	enc := NewEncoder(w)
	if enc.Encode(func() {}) == nil {
		t.Fatal("encoding a func succeeded")
	}
	if enc.Raw("]") == nil || enc.Encode(point{}) == nil || w.tries != 0 {
		t.Fatalf("encoder wrote %d times after a failed Encode", w.tries)
	}
}
