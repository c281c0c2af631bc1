package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mix/internal/xtree"
)

// This file is the wire encoding: Request/Response messages as tagged binary
// fields inside length-prefixed frames, from the first byte of every
// connection in both directions. It sits beneath the framing contract —
// message boundaries, MaxFrame budgets and the session/resume machinery — and
// there is nothing to negotiate: both ends of the protocol live in this
// package.
//
// Layout: a frame is a big-endian uint32 payload length followed by the
// payload. A payload is a message kind byte ('Q' request, 'R' response)
// followed by tagged fields: one tag byte, then the field value — varints
// for integers (zigzag for signed), length-prefixed bytes for strings.
// Boolean fields carry no value; the tag's presence is the truth. Fields
// with zero values are omitted.

// binKindReq/binKindResp are the payload kind bytes.
const (
	binKindReq  = 'Q'
	binKindResp = 'R'
)

// Request field tags.
const (
	reqTagID = iota + 1
	reqTagOp
	reqTagView
	reqTagQuery
	reqTagHandle
	reqTagSkip
	reqTagMax
	reqTagDeep
	reqTagRelease
	reqTagToken
)

// Response field tags.
const (
	respTagID = iota + 1
	respTagOK
	respTagError
	respTagBusy
	respTagRetryAfterMs
	respTagToken
	respTagHandle
	respTagNil
	respTagLabel
	respTagValue
	respTagIsLeaf
	respTagNodeID
	respTagTree
	respTagDataVersion
	respTagFrames
	respTagMore
	respTagTuplesShipped
	respTagQueriesReceived
)

// NodeFrame flag bits (frames are dense enough that a flag byte beats tags).
const (
	frameFlagIsLeaf = 1 << iota
	frameFlagLabel
	frameFlagNodeID
	frameFlagValue
	frameFlagTree
)

// ---- primitive appenders ----

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// binReader decodes primitives from a payload; it records the first error
// and fails all further reads, so decoders check once at the end.
type binReader struct {
	buf []byte
	pos int
	err error
}

func (r *binReader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *binReader) done() bool { return r.err != nil || r.pos >= len(r.buf) }

func (r *binReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail("wire: binary payload truncated")
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("wire: bad uvarint in binary payload")
		return 0
	}
	r.pos += n
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("wire: bad varint in binary payload")
		return 0
	}
	r.pos += n
	return v
}

func (r *binReader) string() string {
	n := int(r.uvarint())
	if r.err != nil {
		return ""
	}
	if n < 0 || len(r.buf)-r.pos < n {
		r.fail("wire: binary string overruns payload")
		return ""
	}
	s := string(r.buf[r.pos : r.pos+n])
	r.pos += n
	return s
}

// ---- request ----

// encodeRequest serializes a request into a binary payload (no length
// prefix: frameStart reserves it, writeBinFrame fills it in).
func encodeRequest(b []byte, req *Request) []byte {
	b = append(b, binKindReq)
	if req.ID != 0 {
		b = append(b, reqTagID)
		b = appendVarint(b, req.ID)
	}
	if req.Op != "" {
		b = append(b, reqTagOp)
		b = appendString(b, req.Op)
	}
	if req.View != "" {
		b = append(b, reqTagView)
		b = appendString(b, req.View)
	}
	if req.Query != "" {
		b = append(b, reqTagQuery)
		b = appendString(b, req.Query)
	}
	if req.Handle != 0 {
		b = append(b, reqTagHandle)
		b = appendVarint(b, req.Handle)
	}
	if req.Skip != 0 {
		b = append(b, reqTagSkip)
		b = appendVarint(b, int64(req.Skip))
	}
	if req.Max != 0 {
		b = append(b, reqTagMax)
		b = appendVarint(b, int64(req.Max))
	}
	if req.Deep {
		b = append(b, reqTagDeep)
	}
	if len(req.Release) > 0 {
		b = append(b, reqTagRelease)
		b = appendUvarint(b, uint64(len(req.Release)))
		for _, h := range req.Release {
			b = appendVarint(b, h)
		}
	}
	if req.Token != "" {
		b = append(b, reqTagToken)
		b = appendString(b, req.Token)
	}
	return b
}

// decodeRequest parses a binary request payload.
func decodeRequest(payload []byte) (Request, error) {
	var req Request
	r := &binReader{buf: payload}
	if k := r.byte(); k != binKindReq {
		return req, fmt.Errorf("wire: binary payload kind %q, want request", k)
	}
	for !r.done() {
		switch tag := r.byte(); tag {
		case reqTagID:
			req.ID = r.varint()
		case reqTagOp:
			req.Op = r.string()
		case reqTagView:
			req.View = r.string()
		case reqTagQuery:
			req.Query = r.string()
		case reqTagHandle:
			req.Handle = r.varint()
		case reqTagSkip:
			req.Skip = int(r.varint())
		case reqTagMax:
			req.Max = int(r.varint())
		case reqTagDeep:
			req.Deep = true
		case reqTagRelease:
			n := r.uvarint()
			if n > uint64(len(payload)-r.pos) { // a handle is at least one byte
				r.fail("wire: release list length %d overruns payload", n)
				break
			}
			// The count is a claim until the handles have been read: reserve
			// one batch's worth and let a longer list grow as it decodes.
			req.Release = make([]int64, 0, min(n, DefaultBatchSize))
			for i := uint64(0); i < n && r.err == nil; i++ {
				req.Release = append(req.Release, r.varint())
			}
		case reqTagToken:
			req.Token = r.string()
		default:
			r.fail("wire: unknown binary request tag %d", tag)
		}
	}
	return req, r.err
}

// ---- response ----

// appendNodeFrame serializes one NodeFrame. It is called only from
// encodeResponse: a response's Frames were grown through the budget-checking
// frameAppender, and serializing frames from anywhere else would ship a
// batch that never passed the budget.
func appendNodeFrame(b []byte, f *NodeFrame) []byte {
	var flags byte
	if f.IsLeaf {
		flags |= frameFlagIsLeaf
	}
	if f.Label != "" {
		flags |= frameFlagLabel
	}
	if f.NodeID != "" {
		flags |= frameFlagNodeID
	}
	if f.Value != "" {
		flags |= frameFlagValue
	}
	if f.Tree != "" {
		flags |= frameFlagTree
	}
	b = append(b, flags)
	b = appendVarint(b, f.Handle)
	if flags&frameFlagLabel != 0 {
		b = appendString(b, f.Label)
	}
	if flags&frameFlagNodeID != 0 {
		b = appendString(b, f.NodeID)
	}
	if flags&frameFlagValue != 0 {
		b = appendString(b, f.Value)
	}
	if flags&frameFlagTree != 0 {
		b = appendString(b, f.Tree)
	}
	return b
}

func decodeNodeFrame(r *binReader) NodeFrame {
	var f NodeFrame
	flags := r.byte()
	f.Handle = r.varint()
	f.IsLeaf = flags&frameFlagIsLeaf != 0
	if flags&frameFlagLabel != 0 {
		f.Label = r.string()
	}
	if flags&frameFlagNodeID != 0 {
		f.NodeID = r.string()
	}
	if flags&frameFlagValue != 0 {
		f.Value = r.string()
	}
	if flags&frameFlagTree != 0 {
		f.Tree = r.string()
	}
	return f
}

// encodeResponse serializes a response into a binary payload.
func encodeResponse(b []byte, resp *Response) []byte {
	b = append(b, binKindResp)
	if resp.ID != 0 {
		b = append(b, respTagID)
		b = appendVarint(b, resp.ID)
	}
	if resp.OK {
		b = append(b, respTagOK)
	}
	if resp.Error != "" {
		b = append(b, respTagError)
		b = appendString(b, resp.Error)
	}
	if resp.Busy {
		b = append(b, respTagBusy)
	}
	if resp.RetryAfterMs != 0 {
		b = append(b, respTagRetryAfterMs)
		b = appendVarint(b, resp.RetryAfterMs)
	}
	if resp.Token != "" {
		b = append(b, respTagToken)
		b = appendString(b, resp.Token)
	}
	if resp.Handle != 0 {
		b = append(b, respTagHandle)
		b = appendVarint(b, resp.Handle)
	}
	if resp.Nil {
		b = append(b, respTagNil)
	}
	if resp.Label != "" {
		b = append(b, respTagLabel)
		b = appendString(b, resp.Label)
	}
	if resp.Value != "" {
		b = append(b, respTagValue)
		b = appendString(b, resp.Value)
	}
	if resp.IsLeaf {
		b = append(b, respTagIsLeaf)
	}
	if resp.NodeID != "" {
		b = append(b, respTagNodeID)
		b = appendString(b, resp.NodeID)
	}
	if resp.Tree != "" {
		b = append(b, respTagTree)
		b = appendString(b, resp.Tree)
	}
	if resp.DataVersion != 0 {
		b = append(b, respTagDataVersion)
		b = appendVarint(b, resp.DataVersion)
	}
	if len(resp.Frames) > 0 {
		b = append(b, respTagFrames)
		b = appendUvarint(b, uint64(len(resp.Frames)))
		for i := range resp.Frames {
			b = appendNodeFrame(b, &resp.Frames[i])
		}
	}
	if resp.More {
		b = append(b, respTagMore)
	}
	if resp.TuplesShipped != 0 {
		b = append(b, respTagTuplesShipped)
		b = appendVarint(b, resp.TuplesShipped)
	}
	if resp.QueriesReceived != 0 {
		b = append(b, respTagQueriesReceived)
		b = appendVarint(b, resp.QueriesReceived)
	}
	return b
}

// decodeResponse parses a binary response payload.
func decodeResponse(payload []byte) (Response, error) {
	var resp Response
	r := &binReader{buf: payload}
	if k := r.byte(); k != binKindResp {
		return resp, fmt.Errorf("wire: binary payload kind %q, want response", k)
	}
	for !r.done() {
		switch tag := r.byte(); tag {
		case respTagID:
			resp.ID = r.varint()
		case respTagOK:
			resp.OK = true
		case respTagError:
			resp.Error = r.string()
		case respTagBusy:
			resp.Busy = true
		case respTagRetryAfterMs:
			resp.RetryAfterMs = r.varint()
		case respTagToken:
			resp.Token = r.string()
		case respTagHandle:
			resp.Handle = r.varint()
		case respTagNil:
			resp.Nil = true
		case respTagLabel:
			resp.Label = r.string()
		case respTagValue:
			resp.Value = r.string()
		case respTagIsLeaf:
			resp.IsLeaf = true
		case respTagNodeID:
			resp.NodeID = r.string()
		case respTagTree:
			resp.Tree = r.string()
		case respTagDataVersion:
			resp.DataVersion = r.varint()
		case respTagFrames:
			n := r.uvarint()
			if n > uint64(len(payload)-r.pos) { // a frame is at least two bytes
				r.fail("wire: frame count %d overruns payload", n)
				break
			}
			// Re-attach decoded frames through the appender — the one
			// construction path for Frames. Budgets were enforced by the
			// sender and by readBinFrame's length check; add never cuts.
			fa := &frameAppender{resp: &resp, max: int(n), budget: len(payload)}
			for i := uint64(0); i < n && r.err == nil; i++ {
				fa.add(decodeNodeFrame(r))
			}
		case respTagMore:
			resp.More = true
		case respTagTuplesShipped:
			resp.TuplesShipped = r.varint()
		case respTagQueriesReceived:
			resp.QueriesReceived = r.varint()
		default:
			r.fail("wire: unknown binary response tag %d", tag)
		}
	}
	return resp, r.err
}

// ---- subtrees ----

// TreeError reports a subtree encoding that does not decode; Off is the byte
// the decoder stopped at.
type TreeError struct {
	Off int
	Msg string
}

func (e *TreeError) Error() string { return fmt.Sprintf("wire: subtree, byte %d: %s", e.Off, e.Msg) }

// treeNode reads the node or end mark at pos of a tree encoding: its kind,
// its label (a substring of enc) and where the next one starts. A label
// length is a minimal uvarint.
func treeNode(enc string, pos int) (kind byte, label string, next int, err error) {
	if kind = enc[pos]; kind == xtree.TreeEnd {
		return kind, "", pos + 1, nil
	} else if kind != xtree.TreeLeaf && kind != xtree.TreeElem {
		return 0, "", 0, &TreeError{pos, fmt.Sprintf("unknown kind %d", kind)}
	}
	n, k := binary.Uvarint([]byte(enc[pos+1 : min(pos+1+binary.MaxVarintLen64, len(enc))]))
	if at := pos + 1 + k; k > 0 && (k == 1 || enc[at-1] != 0) && n <= uint64(len(enc)-at) {
		return kind, enc[at : at+int(n)], at + int(n), nil
	}
	return 0, "", 0, &TreeError{pos, "bad label length"}
}

// decodeTree rebuilds a subtree from its tree encoding. The root gets id and
// every other node &<id>.<preorder index>, as xmlio numbers a parsed
// document. Two iterative passes: the first checks the encoding and counts
// its nodes, the second fills one slice of nodes, one of child pointers and
// one string of ids; labels are substrings of enc.
func decodeTree(enc, id string) (*xtree.Node, error) {
	n, depth, prev := 0, 0, xtree.TreeEnd
	for pos := 0; pos < len(enc); {
		if n > 0 && depth == 0 {
			return nil, &TreeError{pos, "a second root or trailing bytes"}
		}
		kind, _, next, err := treeNode(enc, pos)
		switch {
		case err != nil:
			return nil, err
		case kind == xtree.TreeEnd && depth == 0:
			return nil, &TreeError{pos, "end mark with no open element"}
		case kind == xtree.TreeEnd && prev == xtree.TreeElem:
			return nil, &TreeError{pos, "element without children"}
		case kind == xtree.TreeEnd:
			depth--
		case kind == xtree.TreeElem:
			depth++
			fallthrough
		default:
			n++
		}
		prev, pos = kind, next
	}
	if n == 0 || depth > 0 {
		return nil, &TreeError{len(enc), fmt.Sprintf("%d nodes, %d elements left open", n, depth)}
	}
	prefix := strings.TrimPrefix(id, "&")
	nodes, kids := make([]xtree.Node, n), make([]*xtree.Node, n-1)
	var ids strings.Builder
	ids.Grow((n - 1) * (len(prefix) + 2 + len(strconv.Itoa(n))))
	var num [20]byte
	var openBuf [16]int
	open := openBuf[:0] // per open element, where its children start in kids
	// kids[:q] stack the children of open elements; a closing element's run
	// moves to kids[placed:], which fills from the end. Every node but the
	// root sits in exactly one of the two, so they never collide.
	q, placed := 0, n-1
	for pos, i := 0, 0; pos < len(enc); {
		kind, label, next, _ := treeNode(enc, pos)
		pos = next
		if kind == xtree.TreeEnd {
			start := open[len(open)-1]
			open = open[:len(open)-1]
			parent := &nodes[0]
			if start > 0 {
				parent = kids[start-1]
			}
			placed -= q - start
			copy(kids[placed:], kids[start:q])
			parent.Children = kids[placed : placed+q-start : placed+q-start]
			q = start
			continue
		}
		nd := &nodes[i]
		nd.Label, nd.ID = label, xtree.ID(id)
		if i > 0 {
			at := ids.Len()
			ids.WriteByte('&')
			ids.WriteString(prefix)
			ids.WriteByte('.')
			ids.Write(strconv.AppendInt(num[:0], int64(i), 10))
			nd.ID = xtree.ID(ids.String()[at:])
			kids[q] = nd
			q++
		}
		if kind == xtree.TreeElem {
			open = append(open, q)
		}
		i++
	}
	return &nodes[0], nil
}

// ---- binary framing ----

// binLenSize is the frame length prefix width.
const binLenSize = 4

// frameStart opens a frame in b's storage: the four bytes the length goes
// into once the payload has been encoded behind them.
func frameStart(b []byte) []byte { return append(b[:0], 0, 0, 0, 0) }

// writeBinFrame fills in the length of a frame begun by frameStart and sends
// prefix and payload in one Write, so a frame costs the transport one write
// whatever its size.
func writeBinFrame(w io.Writer, frame []byte) error {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-binLenSize))
	_, err := w.Write(frame)
	return err
}

// readBinFrame reads one length-prefixed frame of at most max payload bytes.
// On an oversized frame it drains the payload — resynchronizing the stream —
// and returns *FrameTooLargeError.
func readBinFrame(r *bufio.Reader, max int) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	var hdr [binLenSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > uint32(max) {
		if _, err := io.CopyN(io.Discard, r, int64(n)); err != nil {
			return nil, err
		}
		return nil, &FrameTooLargeError{Limit: max}
	}
	// The prefix is the peer's claim: memory is committed as payload arrives
	// (one exact allocation up to frameBufSize, doubling beyond).
	buf := make([]byte, min(int(n), frameBufSize))
	for have := 0; ; {
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if have = len(buf); have == int(n) {
			return buf, nil
		}
		grown := make([]byte, min(int(n), 2*have))
		copy(grown, buf)
		buf = grown
	}
}
