package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// fuzzMaxFrame is the frame bound FuzzDecodeFrame reads under: small, so the
// mutator reaches the oversize-and-drain path with short inputs.
const fuzzMaxFrame = 1 << 12

// FuzzDecodeFrame feeds arbitrary bytes through the one path network input
// takes — readBinFrame, then decodeRequest or decodeResponse. Every input
// ends in a value or a typed error, never a panic; a payload is never longer
// than the bytes that arrived for it, and a decoded list never reserves more
// than the handles that arrived for it; and whatever decodes survives
// encode → decode unchanged. testdata/fuzz holds the hand-made hostile
// frames; the message tables of codec_internal_test.go seed the rest.
func FuzzDecodeFrame(f *testing.F) {
	for _, req := range requestCases {
		f.Add(frameOf(encodeRequest(nil, &req)))
	}
	for _, resp := range responseCases {
		f.Add(frameOf(encodeResponse(nil, &resp)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readBinFrame(bufio.NewReader(bytes.NewReader(data)), fuzzMaxFrame)
		if err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("untyped frame error %T: %v", err, err)
			}
			return
		}
		if len(payload) > len(data)-binLenSize || len(payload) > fuzzMaxFrame {
			t.Fatalf("%d-byte payload from %d bytes of input", len(payload), len(data))
		}
		req, err := decodeRequest(payload)
		if room := max(DefaultBatchSize, 2*len(payload)); cap(req.Release) > room {
			t.Fatalf("release list reserved %d handles for a %d-byte payload", cap(req.Release), len(payload))
		}
		if err == nil {
			again, err := decodeRequest(encodeRequest(nil, &req))
			if len(req.Release) == 0 {
				req.Release = nil // an explicit empty list is not re-encoded
			}
			if err != nil || !reflect.DeepEqual(again, req) {
				t.Fatalf("request changed in encode → decode (%v)\n got: %+v\nfrom: %+v", err, again, req)
			}
		}
		if resp, err := decodeResponse(payload); err == nil {
			again, err := decodeResponse(encodeResponse(nil, &resp))
			if err != nil || !reflect.DeepEqual(again, resp) {
				t.Fatalf("response changed in encode → decode (%v)\n got: %+v\nfrom: %+v", err, again, resp)
			}
		}
	})
}
