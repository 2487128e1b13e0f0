package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// The data plane (/mulvec, the shard mulvecs endpoint, /update) runs on
// pooled storage, so a steady stream of requests allocates no buffer
// that scales with the vectors: each body is read into a pooled byte
// buffer, x and y live in pooled float64 scratch, and the reply is
// encoded into the buffer its request arrived in. The byte buffer never
// reaches the batch loop, so a handler returns it to the pool when it
// is done. The float64 scratch does reach it, so it goes back only
// through repoolVecs.

// bodyScratch pools the data plane's request bodies and encoded replies.
// A *[]byte is pooled rather than the slice to keep the Put
// interface-boxing free.
var bodyScratch = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// vecScratch pools the data plane's x and y storage. A *[]float64 is
// pooled rather than the slice for the same reason.
var vecScratch = sync.Pool{New: func() any { s := make([]float64, 0, 4096); return &s }}

// readBody reads r's body, capped at MaxBodyBytes, into a buffer from
// bodyScratch, which the caller returns there. maxFrame is the largest
// body the handler can accept for its target. The buffer is presized to
// the smallest of the declared Content-Length, maxFrame and the cap —
// never to a length the peer alone claims — and grows beyond that only
// as bytes actually arrive. A body over the cap fails with the
// *http.MaxBytesError that writeErr maps to 413.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, maxFrame int64) (*[]byte, error) {
	buf := bodyScratch.Get().(*[]byte)
	b := (*buf)[:0]
	if r.ContentLength > 0 {
		// One byte past the body, so the read that reports EOF finds room
		// without growing the buffer.
		if size := min(r.ContentLength, maxFrame, s.cfg.MaxBodyBytes) + 1; int64(cap(b)) < size {
			b = make([]byte, 0, size)
		}
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			*buf = b
			return buf, nil
		}
		if err != nil {
			// b may have grown toward the cap; only the original buffer
			// goes back.
			bodyScratch.Put(buf)
			return nil, err
		}
	}
}

// writeBody sends b as the whole reply, declaring its length, so a
// large vector goes out in one write instead of chunked.
func writeBody(w http.ResponseWriter, contentType string, b []byte) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b)
}

// keep records v's backing array in the pooled slot p when v outgrew it,
// so the pool keeps the larger array.
func keep(p *[]float64, v []float64) {
	if cap(v) > cap(*p) {
		*p = v[:0]
	}
}

// repoolVecs returns the x and y scratch of a request to vecScratch
// once err, the request's outcome from the registry, shows the batch
// loop is finished with them. Any outcome the loop delivered proves
// that, as does an error raised before the request was queued (nil
// stands for both). A context error does not: the batcher returns on
// ctx.Done while the loop may still hold the panel for a dispatch it
// has not yet dropped, and the kernel would then write into a buffer
// another request is using. Those buffers are left to the collector.
func repoolVecs(err error, bufs ...*[]float64) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	for _, b := range bufs {
		vecScratch.Put(b)
	}
}
