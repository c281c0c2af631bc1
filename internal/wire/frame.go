package wire

import (
	"errors"
	"fmt"
)

// DefaultMaxFrame is the default bound on one protocol frame's payload (a
// request or a response). An oversized frame yields a typed
// *FrameTooLargeError while the session keeps running.
const DefaultMaxFrame = 16 << 20

// frameBufSize is the chunk size frames are assembled from.
const frameBufSize = 64 << 10

// ErrFrameTooLarge is the sentinel matched by errors.Is for oversized
// frames; the concrete error is *FrameTooLargeError, which carries the
// limit.
var ErrFrameTooLarge = errors.New("wire: frame too large")

// FrameTooLargeError reports a frame that exceeded the configured limit.
// The oversized payload is consumed and discarded, so framing stays intact
// and the connection remains usable.
type FrameTooLargeError struct {
	// Limit is the frame bound in bytes that was exceeded.
	Limit int
}

func (e *FrameTooLargeError) Error() string {
	return fmt.Sprintf("wire: frame exceeds %d-byte limit", e.Limit)
}

// Is makes errors.Is(err, ErrFrameTooLarge) true.
func (e *FrameTooLargeError) Is(target error) bool { return target == ErrFrameTooLarge }
