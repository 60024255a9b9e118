// Package httpjson is the one JSON front door of the campaign, fabric
// and adversarial HTTP handlers: one decoder, one writer, one stream.
package httpjson

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Decode reads r's body, at most limit bytes, as exactly one JSON value
// into v: an unknown field or anything but whitespace after it is an error.
func Decode(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if errors.As(err, new(*http.MaxBytesError)) {
			return err
		}
		return errors.New("body continues after its JSON value")
	}
	return nil
}

// Encoder writes JSON values (each with a newline, HTML escaping off) and
// raw framing to w. After its first error it writes nothing and returns it.
type Encoder struct {
	w   io.Writer
	enc *json.Encoder
	err error
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return &Encoder{w: w, enc: enc}
}

// Encode writes v and a newline.
func (e *Encoder) Encode(v any) error {
	if e.err == nil {
		e.err = e.enc.Encode(v)
	}
	return e.err
}

// Raw writes s as it is.
func (e *Encoder) Raw(s string) error {
	if e.err == nil {
		_, e.err = io.WriteString(e.w, s)
	}
	return e.err
}

// Write answers with status code and v as an application/json body.
func Write(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = NewEncoder(w).Encode(v) // the status is sent: no one to tell
}

// Error answers with status code and {"error": message}.
func Error(w http.ResponseWriter, code int, format string, args ...any) {
	Write(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Stream writes an NDJSON response. Nothing is sent before the first
// Send, so until then a handler may still answer with Error.
type Stream struct {
	w   http.ResponseWriter
	enc *Encoder
}

// NewStream returns a Stream writing to w.
func NewStream(w http.ResponseWriter) *Stream { return &Stream{w: w} }

// Send writes v as the next line and flushes it; the first Send sends
// status 200, Content-Type application/x-ndjson and X-Accel-Buffering:
// no (a proxy passes each line on at once). Like Encoder, Send keeps its
// first error, and a handler that gets one should stop its work.
func (s *Stream) Send(v any) error {
	if s.enc == nil {
		s.w.Header().Set("Content-Type", "application/x-ndjson")
		s.w.Header().Set("X-Accel-Buffering", "no")
		s.w.WriteHeader(http.StatusOK)
		s.enc = NewEncoder(s.w)
	}
	err := s.enc.Encode(v)
	if f, ok := s.w.(http.Flusher); ok && err == nil {
		f.Flush()
	}
	return err
}

// Started reports whether Send has sent the response header.
func (s *Stream) Started() bool { return s.enc != nil }
