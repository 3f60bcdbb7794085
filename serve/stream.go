package serve

// Streaming mode: POST /v1/run?stream=ndjson answers with line-delimited
// JSON events instead of one blocking body, so a client watching a long
// simulation sees signs of life (progress heartbeats) and the final
// metrics the moment they exist — the "results flow as they are
// produced" shape of the paper's streaming workloads, applied to the
// service itself.
//
// The stream is a sequence of typed events, one JSON object per line,
// with a strictly monotone seq starting at 0:
//
//	{"seq":0,"type":"progress","cycle":1000000,"instructions":83133}
//	{"seq":1,"type":"metrics","key":"ab12…","cache":"miss","status":200,"body":"{…}\n"}
//	{"seq":2,"type":"done","status":200}
//
// Event types:
//
//	progress  heartbeat from the running simulation (WithProgress); the
//	          cadence is the library default (every 1M simulated cycles)
//	          or the ?progress_every=N query parameter
//	metrics   one run's result: body carries, as a JSON string, the EXACT
//	          bytes the non-streaming /v1/run response would have — the
//	          byte-equivalence the differential battery pins
//	done      terminal success marker (for /v1/sweep it carries the tallies)
//	error     a failed run, same typed detail as the non-streaming error
//	          envelope; terminal for /v1/run, per-cell for /v1/sweep
//
// The body rides as a JSON string rather than embedded JSON because
// encoding/json compacts embedded RawMessage output, and the metrics
// snapshot is indented; string escaping round-trips the bytes exactly.
//
// Cancellation: the run is executed under the HTTP request's context,
// so a client disconnect closes sim.Config.Cancel and stops the
// simulation within its polling bound (1024 cycles) — a canceled run
// produces an error event with code "canceled" and is never cached.

import (
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"

	"hfstream"
)

// ndjsonContentType labels streaming responses. Each line is one
// StreamEvent; the stream is flushed after every event.
const ndjsonContentType = "application/x-ndjson"

// streamEventBuffer bounds progress events queued between the simulation
// goroutine and the HTTP writer. The progress hook must never block the
// simulation, so events past the buffer are dropped — heartbeats are
// advisory; only metrics/done/error events are part of the contract.
const streamEventBuffer = 256

// Stream event types.
const (
	eventProgress = "progress"
	eventMetrics  = "metrics"
	eventDone     = "done"
	eventError    = "error"
)

// StreamEvent is one NDJSON line of a streaming response (see the
// package comment above for the per-type field population).
type StreamEvent struct {
	Seq  uint64 `json:"seq"`
	Type string `json:"type"`

	// progress fields.
	Cycle        uint64 `json:"cycle,omitempty"`
	Instructions uint64 `json:"instructions,omitempty"`

	// metrics / error fields. Spec is populated on /v1/sweep cell events so
	// a client can tie a completion back to its grid cell; Key and Cache
	// are the X-Hfserve-Key / X-Hfserve-Cache equivalents; Body is the
	// exact non-streaming response body as a JSON string.
	Spec   *hfstream.Spec `json:"spec,omitempty"`
	Key    string         `json:"key,omitempty"`
	Cache  string         `json:"cache,omitempty"`
	Status int            `json:"status,omitempty"`
	Body   string         `json:"body,omitempty"`
	Error  *ErrorDetail   `json:"error,omitempty"`

	// done tallies (sweep): Cells is the grid size, Ran/Hits/PeerHits/
	// Coalesced its cache-provenance split, Errors the failed-cell count.
	Cells     int `json:"cells,omitempty"`
	Ran       int `json:"ran,omitempty"`
	Hits      int `json:"hits,omitempty"`
	PeerHits  int `json:"peer_hits,omitempty"`
	Coalesced int `json:"coalesced,omitempty"`
	Errors    int `json:"errors,omitempty"`
}

// streamHooks is a streaming request's progress delivery, carried into
// the run seam. It costs nothing until a simulation is about to run on
// this request's behalf (start, called by execSpec): a hit, a peer fill,
// a joined flight and a shed request never pay for the event buffer or
// the goroutine that drains it.
type streamHooks struct {
	sw    streamWriter // the response; held by value so a stream is one allocation
	every uint64       // progress cadence in cycles (0 = library default)

	events chan hfstream.ProgressEvent
	pumped chan struct{} // closed once the last buffered event is written
}

// start opens progress delivery and returns the callback the simulation
// invokes. Events hop from the simulation goroutine to the response
// through a bounded buffer that a goroutine of its own drains, so neither
// the simulation nor the flight it leads waits on the client's socket.
func (h *streamHooks) start() func(hfstream.ProgressEvent) {
	h.events = make(chan hfstream.ProgressEvent, streamEventBuffer)
	h.pumped = make(chan struct{})
	go func() {
		defer close(h.pumped)
		for ev := range h.events {
			h.sw.send(StreamEvent{Type: eventProgress, Cycle: ev.Cycle, Instructions: ev.Instructions})
		}
	}()
	return func(ev hfstream.ProgressEvent) {
		select {
		case h.events <- ev:
		default:
		}
	}
}

// finish ends progress delivery if it ever began and returns once every
// buffered event is on the wire, so progress lines never trail the
// result. The run must have returned: nothing may call the callback
// after this.
func (h *streamHooks) finish() {
	if h.events != nil {
		close(h.events)
		<-h.pumped
	}
}

// streamWriter serializes events onto one HTTP response with monotone
// sequence numbers, flushing after each line. Writes after a client
// disconnect fail; the writer goes quiet rather than erroring out, and
// the simulation is stopped through the request context instead. It is
// used by one goroutine at a time (the handler, and between
// streamHooks.start and finish the progress pump).
type streamWriter struct {
	w      http.ResponseWriter
	f      http.Flusher
	seq    uint64
	failed bool
}

func newStreamWriter(w http.ResponseWriter) streamWriter {
	f, _ := w.(http.Flusher)
	return streamWriter{w: w, f: f}
}

// begin commits the response: a stream is always HTTP 200 once event
// delivery starts (failures ride in error events), and the header flush
// must not wait for the first event — a client watching a long run
// needs the response open immediately.
func (sw *streamWriter) begin() {
	sw.w.WriteHeader(http.StatusOK)
	if sw.f != nil {
		sw.f.Flush()
	}
}

// send assigns the next sequence number and writes one event line. The
// seq still advances after a write failure so a partially-received
// stream never renumbers.
func (sw *streamWriter) send(ev StreamEvent) {
	ev.Seq = sw.seq
	sw.seq++
	if sw.failed {
		return
	}
	line, err := marshalEvent(ev)
	if err != nil {
		sw.failed = true
		return
	}
	if _, err := sw.w.Write(line); err != nil {
		sw.failed = true
		return
	}
	if sw.f != nil {
		sw.f.Flush()
	}
}

// marshalEvent renders one NDJSON line (object + newline).
func marshalEvent(ev StreamEvent) ([]byte, error) {
	b, err := json.Marshal(ev)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// outcomeEvent converts a run outcome into its stream event: a metrics
// event carrying the exact response body on success, an error event
// carrying the typed detail otherwise.
func outcomeEvent(out *outcome, key string, spec *hfstream.Spec) StreamEvent {
	if out.ok {
		return StreamEvent{
			Type: eventMetrics, Spec: spec, Key: key, Cache: out.source,
			Status: out.status, Body: string(out.body),
		}
	}
	return StreamEvent{
		Type: eventError, Spec: spec, Key: key,
		Status: out.status, Error: decodeErrorDetail(out.body),
	}
}

// decodeErrorDetail recovers the typed detail from a rendered error
// envelope so stream events carry structure, not a quoted blob.
func decodeErrorDetail(body []byte) *ErrorDetail {
	var e ErrorEnvelope
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code == "" {
		return &ErrorDetail{Code: codeInternal, Message: string(body)}
	}
	return &e.Error
}

// parseProgressEvery reads the ?progress_every query parameter (cycles
// between progress events; 0 or absent keeps the library default).
func parseProgressEvery(q url.Values) (uint64, bool) {
	raw := q.Get("progress_every")
	if raw == "" {
		return 0, true
	}
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// streamRun is the streaming half of handleRun: the same resolve as the
// blocking path, under the request's context so that a disconnect stops
// the run, with progress events interleaved while a simulation this
// request leads is running.
func (s *Server) streamRun(w http.ResponseWriter, r *http.Request, q url.Values, key string, spec hfstream.Spec) {
	every, ok := parseProgressEvery(q)
	if !ok {
		writeOutcome(w, key, errorOutcome(http.StatusBadRequest, codeBadRequest,
			"progress_every must be a non-negative integer", nil))
		return
	}
	s.streams.Add(1)

	w.Header().Set("Content-Type", ndjsonContentType)
	w.Header().Set("X-Hfserve-Key", key)
	hooks := &streamHooks{sw: newStreamWriter(w), every: every}
	sw := &hooks.sw
	sw.begin()

	out := s.resolve(r.Context(), key, spec, hooks)
	hooks.finish()
	sw.send(outcomeEvent(&out, key, nil))
	if out.ok {
		sw.send(StreamEvent{Type: eventDone, Status: http.StatusOK})
	}
}
