package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
)

// frameOf is payload as it crosses the wire: behind its length prefix.
func frameOf(payload []byte) []byte {
	var buf bytes.Buffer
	if err := writeBinFrame(&buf, append(frameStart(nil), payload...)); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// requestCases and responseCases cover every field of both messages; the
// round-trip tables below and FuzzDecodeFrame's seed corpus share them.
var requestCases = []Request{
	{ID: 1, Op: "ping"},
	{ID: 7, Op: "open", View: "rootv"},
	{ID: 42, Op: "queryFrom", Query: "WHERE <a>$v</> IN $db CONSTRUCT <r>$v</>", Handle: 99},
	{ID: 3, Op: "children", Handle: 12, Skip: 5, Max: 64, Deep: true},
	{ID: 9, Op: "close", Handle: 4, Release: []int64{1, 2, 3, 1 << 40}},
	{ID: 11, Op: "resume", Token: "tok-abcdef"},
	{ID: -5, Op: "down", Handle: -8},             // negative ints exercise zigzag
	{ID: 2, Op: "children", Handle: 1, Skip: -1}, // once took the server process down
}

var responseCases = []Response{
	{ID: 1, OK: true, Handle: 10, Label: "CustRec", NodeID: "&o1", DataVersion: 3},
	{ID: 2, OK: false, Error: "unknown view \"x\""},
	{ID: 3, Busy: true, RetryAfterMs: 250},
	{ID: 4, OK: true, Nil: true},
	{ID: 5, OK: true, IsLeaf: true, Value: "XYZ123", Token: "tok"},
	{ID: 6, OK: true, Tree: "\x02\x01a\x02\x01b\x01\x01x\x00\x00", TuplesShipped: 17, QueriesReceived: 2},
	{ID: 7, OK: true, More: true, Frames: []NodeFrame{
		{Handle: 1, Label: "a", NodeID: "&1"},
		{Handle: 2, Label: "b", IsLeaf: true, Value: "v"},
		{Handle: 3, Tree: "\x01\x01c"},
		{Handle: -4},
	}},
}

// TestBinaryRequestRoundTrip pins the request codec: every field survives
// encode/decode, including zero-valued ones (omitted on the wire, zero after
// decode).
func TestBinaryRequestRoundTrip(t *testing.T) {
	for i, req := range requestCases {
		payload := encodeRequest(nil, &req)
		got, err := decodeRequest(payload)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("case %d: round trip changed the request\ngot:  %+v\nwant: %+v", i, got, req)
		}
	}
}

// TestBinaryResponseRoundTrip pins the response codec, including a frame
// batch (re-attached through the budget-checking appender) and the busy/error
// shapes.
func TestBinaryResponseRoundTrip(t *testing.T) {
	for i, resp := range responseCases {
		payload := encodeResponse(nil, &resp)
		got, err := decodeResponse(payload)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Fatalf("case %d: round trip changed the response\ngot:  %+v\nwant: %+v", i, got, resp)
		}
	}
}

// TestBinaryCodecCompact pins what a frame-heavy response costs on the wire:
// 11 bytes of envelope and 24 a frame here (flag byte, two-byte handle, three
// length-prefixed strings), where the JSON line protocol these frames
// replaced spent 4 061 bytes on the same response.
func TestBinaryCodecCompact(t *testing.T) {
	frames := make([]NodeFrame, 50)
	for i := range frames {
		frames[i] = NodeFrame{
			Handle: int64(1000 + i), Label: "CustRec", NodeID: "&o123", IsLeaf: i%2 == 0, Value: "XYZ123",
		}
	}
	resp := Response{ID: 12345, OK: true, DataVersion: 7, More: true, Frames: frames}
	if bin := encodeResponse(nil, &resp); len(bin) != 11+50*24 {
		t.Fatalf("binary response is %d bytes, want %d", len(bin), 11+50*24)
	}
}

// TestReadBinFrameOversize: an oversized binary frame is drained (framing
// stays intact) and surfaces as *FrameTooLargeError.
func TestReadBinFrameOversize(t *testing.T) {
	stream := append(frameOf(make([]byte, 100)), frameOf(encodeRequest(nil, &Request{ID: 1, Op: "ping"}))...)
	r := bufio.NewReader(bytes.NewReader(stream))
	_, err := readBinFrame(r, 10)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame error = %v, want ErrFrameTooLarge", err)
	}
	next, err := readBinFrame(r, 10)
	if err != nil {
		t.Fatalf("stream did not resynchronize after oversized frame: %v", err)
	}
	if req, err := decodeRequest(next); err != nil || req.Op != "ping" {
		t.Fatalf("post-drain frame = %+v, %v", req, err)
	}
}

// TestReadBinFrameTruncated: a frame cut mid-payload is a transport error,
// not a silent short read.
func TestReadBinFrameTruncated(t *testing.T) {
	whole := frameOf(make([]byte, 64))
	cut := whole[:len(whole)-10]
	if _, err := readBinFrame(bufio.NewReader(bytes.NewReader(cut)), 0); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame error = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestDecodeGarbage: corrupted payloads fail with an error instead of
// producing a half-decoded message.
func TestDecodeGarbage(t *testing.T) {
	if _, err := decodeRequest([]byte{binKindResp, 1, 2, 3}); err == nil {
		t.Error("request decode accepted a response payload")
	}
	if _, err := decodeResponse([]byte{binKindReq}); err == nil {
		t.Error("response decode accepted a request payload")
	}
	if _, err := decodeRequest([]byte{binKindReq, 200}); err == nil {
		t.Error("unknown tag decoded without error")
	}
	// A string length running past the payload must not panic or over-read.
	bad := []byte{binKindResp, respTagError, 0xFF, 0xFF, 0x03, 'x'}
	if _, err := decodeResponse(bad); err == nil {
		t.Error("overrunning string length decoded without error")
	}
}

// TestReadBinFrameTrustsBytesNotThePrefix: the length prefix is a claim.
// A peer that announces a maximal frame and sends a few bytes costs the
// reader those bytes' worth of buffer, not MaxFrame; a frame past the first
// buffer still arrives whole.
func TestReadBinFrameTrustsBytesNotThePrefix(t *testing.T) {
	claim := binary.BigEndian.AppendUint32(nil, DefaultMaxFrame)
	claim = append(claim, make([]byte, 100)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readBinFrame(bufio.NewReaderSize(bytes.NewReader(claim), 16), 0)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("short frame error = %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*frameBufSize {
		t.Fatalf("a 100-byte payload behind a %d-byte claim allocated %d bytes", DefaultMaxFrame, grew)
	}

	big := make([]byte, 5*frameBufSize+123)
	for i := range big {
		big[i] = byte(i * 7)
	}
	got, err := readBinFrame(bufio.NewReader(bytes.NewReader(frameOf(big))), 0)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("large frame: %d of %d bytes intact, err %v", len(got), len(big), err)
	}
}
