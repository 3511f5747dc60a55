package archive

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// maxInflateRatio bounds how far deflate can expand its input (RFC 1951: a
// stored length/distance pair of a few bits copies up to 258 bytes).
const maxInflateRatio = 1032

// minMemberBytes is the shortest object a member with a length subfield can
// be: the header through the subfield, and the 8-byte trailer.
const minMemberBytes = memberLenAt + 4 + 8

// inflateTask is one gzip member of a segment, inflated into its stretch of
// the segment's stream buffer.
type inflateTask struct {
	src  []byte // the member
	at   int    // src's offset in the object
	size int    // the member's ISIZE: the bytes dst holds
	dst  []byte
	err  error
}

// segmentLoad is one fetched segment on its way to a verified stream: the
// buffer its tasks inflate into, and how many of them are still running.
type segmentLoad struct {
	seg   SegmentInfo
	buf   []byte
	tasks []inflateTask
	left  atomic.Int32
}

// memberLen returns the length the gzip member at the front of b states in
// its header's "RB" subfield, and false if the header has none.
func memberLen(b []byte) (int, bool) {
	const fextra = 1 << 2
	if len(b) < 12 || b[0] != 0x1f || b[1] != 0x8b || b[3]&fextra == 0 {
		return 0, false
	}
	xlen := int(binary.LittleEndian.Uint16(b[10:12]))
	if len(b)-12 < xlen {
		return 0, false
	}
	for extra := b[12 : 12+xlen]; len(extra) >= 4; {
		n := int(binary.LittleEndian.Uint16(extra[2:4]))
		if len(extra)-4 < n {
			return 0, false
		}
		if extra[0] == 'R' && extra[1] == 'B' && n == 4 {
			return int(binary.LittleEndian.Uint32(extra[4:8])), true
		}
		extra = extra[4+n:]
	}
	return 0, false
}

// errPreMember refuses a segment whose first member states no length: one
// written as a single gzip stream, before segments were cut into members.
var errPreMember = errors.New("its first gzip member states no length (one gzip stream, written before segments were cut into members): " +
	"re-archive the chain by crawling it again with -archive into a new location")

// splitMembers cuts obj into its gzip members by their length subfields,
// each task sized by its trailer's ISIZE.
func splitMembers(obj []byte) ([]inflateTask, error) {
	var tasks []inflateTask
	for at := 0; at < len(obj); {
		n, ok := memberLen(obj[at:])
		switch {
		case !ok && at == 0:
			return nil, errPreMember
		case !ok:
			return nil, fmt.Errorf("gzip member at byte %d states no length", at)
		case n < minMemberBytes:
			return nil, fmt.Errorf("gzip member at byte %d states %d bytes, fewer than a member's header and trailer", at, n)
		case n > len(obj)-at:
			return nil, fmt.Errorf("gzip member at byte %d states %d bytes, %d past the object's end: %v",
				at, n, n-(len(obj)-at), io.ErrUnexpectedEOF)
		}
		size := int(binary.LittleEndian.Uint32(obj[at+n-4 : at+n]))
		if size > maxInflateRatio*n {
			return nil, fmt.Errorf("gzip member at byte %d claims to inflate %d bytes to %d, past what deflate can", at, n, size)
		}
		tasks = append(tasks, inflateTask{src: obj[at : at+n], at: at, size: size})
		at += n
	}
	return tasks, nil
}

// streamSize is the stream length seg's entry accounts for — the magic, a
// 12-byte header per record and the payload bytes — and whether the entry
// is well-formed and that length at most limit.
func streamSize(seg SegmentInfo, limit int64) (int64, bool) {
	if seg.Blocks < 0 || seg.RawBytes < 0 || seg.Blocks > limit/12 || seg.RawBytes > limit {
		return 0, false
	}
	want := int64(len(segmentMagic)) + 12*seg.Blocks + seg.RawBytes
	return want, want <= limit
}

// plan finds obj's members and allocates the one buffer they inflate into.
// The members' ISIZEs must add up to exactly the stream seg's entry
// accounts for before anything is allocated.
func (l *segmentLoad) plan(obj []byte) error {
	tasks, err := splitMembers(obj)
	if err != nil {
		return err
	}
	var size int64
	for _, t := range tasks {
		size += int64(t.size)
	}
	switch want, ok := streamSize(l.seg, size); {
	case !ok:
		return fmt.Errorf("stream disagrees with manifest: its gzip members inflate to %d bytes, fewer than its entry accounts for", size)
	case want < size:
		return fmt.Errorf("stream inflates past the %d bytes its manifest entry accounts for (its gzip members state %d)", want, size)
	}
	l.buf = make([]byte, size)
	off := 0
	for i := range tasks {
		n := tasks[i].size
		tasks[i].dst = l.buf[off : off+n : off+n]
		off += n
	}
	l.tasks = tasks
	l.left.Store(int32(len(tasks)))
	return nil
}

// flatePool holds the DEFLATE decoders member tasks borrow, so inflating
// allocates nothing past the first use.
var flatePool = sync.Pool{New: func() any { return new(flateDecoder) }}

// run inflates the member into dst through the archive's DEFLATE decoder,
// whose verdict is final: dst is filled exactly, the CRC-32 and ISIZE
// checked, and the member ends where its stated length does, or the task
// fails naming what the decoder refused.
func (t *inflateTask) run() {
	d := flatePool.Get().(*flateDecoder)
	defer flatePool.Put(d)
	t.err = nil
	if err := d.gunzip(t.src, t.dst); err != nil {
		t.err = fmt.Errorf("gzip member at byte %d: %v", t.at, err)
	}
}

// stream returns the segment's inflated records, the magic stripped, or
// the first failed task's error in stream order.
func (l *segmentLoad) stream() ([]byte, error) {
	for i := range l.tasks {
		if err := l.tasks[i].err; err != nil {
			return nil, err
		}
	}
	// Members fill their stretches exactly, so the stream is the buffer.
	if len(l.buf) < len(segmentMagic) || string(l.buf[:len(segmentMagic)]) != segmentMagic {
		return nil, fmt.Errorf("bad segment magic")
	}
	return l.buf[len(segmentMagic):], nil
}

// corrupt wraps a failure found inside seg's object as ErrCorrupt.
func corrupt(seg SegmentInfo, err error) error {
	return fmt.Errorf("archive: segment %s: %v: %w", seg.File, err, ErrCorrupt)
}

// fetchSegment fetches seg's object, checks its size and SHA-256 against
// the manifest, and plans its inflate. A store failure propagates as-is —
// a flaky backend is not corruption, and absence is the caller's to judge.
func (r *Reader) fetchSegment(seg SegmentInfo) (*segmentLoad, error) {
	obj, err := r.store.Get(context.Background(), seg.File)
	if err != nil {
		return nil, err
	}
	if int64(len(obj)) != seg.CompBytes {
		return nil, fmt.Errorf("archive: segment %s is %d bytes, manifest says %d (truncated or modified): %w",
			seg.File, len(obj), seg.CompBytes, ErrCorrupt)
	}
	if got := sha256Hex(obj); got != seg.SHA256 {
		return nil, fmt.Errorf("archive: segment %s checksum mismatch (manifest %s, object %s — truncated or modified): %w",
			seg.File, short(seg.SHA256), short(got), ErrCorrupt)
	}
	l := &segmentLoad{seg: seg}
	if err := l.plan(obj); err != nil {
		return nil, corrupt(seg, err)
	}
	return l, nil
}

// memberEstimate is how many members seg's entry suggests it holds, which
// bounds how many workers its load can use.
func memberEstimate(seg SegmentInfo) int {
	return 1 + int(min(max(seg.RawBytes, 0), 1<<40)/memberBytes)
}

// loadSegments fetches, verifies and inflates manifest segments segs[0],
// segs[1], … on up to workers goroutines, the caller's among them, and
// calls done(k, stream, err) once per segment from whichever goroutine
// finishes segs[k]. Work is claimed per gzip member, not per segment: a
// worker inflates a queued member of a segment already fetched before it
// fetches the next, so at most about workers segments are held at once
// and one segment's members inflate on every worker. A segment fails with
// its fetch's error, or its first failing member's in stream order.
func (r *Reader) loadSegments(segs []int, workers int, done func(k int, stream []byte, err error)) {
	type memberRef struct {
		k    int
		load *segmentLoad
		task int
	}
	var (
		mu       sync.Mutex
		wake     = sync.NewCond(&mu)
		queue    []memberRef
		next     int // segs[next] is the next to fetch
		fetching int
	)
	work := func() {
		mu.Lock()
		defer mu.Unlock()
		for {
			switch {
			case len(queue) > 0:
				ref := queue[0]
				queue = queue[1:]
				mu.Unlock()
				ref.load.tasks[ref.task].run()
				if ref.load.left.Add(-1) == 0 {
					stream, err := ref.load.stream()
					if err != nil {
						err = corrupt(ref.load.seg, err)
					}
					done(ref.k, stream, err)
				}
				mu.Lock()
			case next < len(segs):
				k := next
				next++
				fetching++
				mu.Unlock()
				load, err := r.fetchSegment(r.man.Segments[segs[k]])
				if err != nil {
					done(k, nil, err)
				}
				mu.Lock()
				fetching--
				if err == nil {
					for i := range load.tasks {
						queue = append(queue, memberRef{k, load, i})
					}
				}
				wake.Broadcast()
			case fetching > 0:
				wake.Wait()
			default:
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
