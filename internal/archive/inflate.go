package archive

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
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
// the segment's stream buffer — or, for a segment whose header states no
// member length (every segment written before members existed), the whole
// object, read to its end.
type inflateTask struct {
	src    []byte // the member, or the whole object
	at     int    // src's offset in the object
	member bool   // src is one member and must inflate to exactly size bytes
	size   int    // bytes dst holds: a member's ISIZE, or the whole buffer
	dst    []byte
	n      int // bytes inflated into dst
	err    error
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

// splitMembers cuts obj into its gzip members by their length subfields,
// each task sized by its trailer's ISIZE. It returns no tasks and no error
// for an object whose first member states no length.
func splitMembers(obj []byte) ([]inflateTask, error) {
	if _, ok := memberLen(obj); !ok {
		return nil, nil
	}
	var tasks []inflateTask
	for at := 0; at < len(obj); {
		n, ok := memberLen(obj[at:])
		switch {
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
		tasks = append(tasks, inflateTask{src: obj[at : at+n], at: at, member: true, size: size})
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
// accounts for before anything is allocated. A segment without member
// lengths is one task into a buffer sized from its entry and capped by what
// obj could inflate to: a longer stream is refused without inflating the
// rest, a shorter one is caught by the record walk.
func (l *segmentLoad) plan(obj []byte) error {
	tasks, err := splitMembers(obj)
	if err != nil {
		return err
	}
	var size int64
	if tasks == nil {
		size = maxInflateRatio * int64(len(obj))
		if want, ok := streamSize(l.seg, size); ok {
			size = want
		}
		tasks = []inflateTask{{src: obj, size: int(size)}}
	} else {
		for _, t := range tasks {
			size += int64(t.size)
		}
		switch want, ok := streamSize(l.seg, size); {
		case !ok:
			return fmt.Errorf("stream disagrees with manifest: its gzip members inflate to %d bytes, fewer than its entry accounts for", size)
		case want < size:
			return fmt.Errorf("stream inflates past the %d bytes its manifest entry accounts for (its gzip members state %d)", want, size)
		}
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

// inflater is one running task's pooled state: the archive's own DEFLATE
// decoder, and the gzip reader with the byte reader it reads from for the
// members that decoder refuses. Pooled, inflating allocates nothing past
// the first use.
type inflater struct {
	flate flateDecoder
	src   bytes.Reader
	gz    gzip.Reader
	probe [1]byte
}

var inflaterPool = sync.Pool{New: func() any { return new(inflater) }}

// run inflates the task into dst. A member must fill dst exactly, end
// there with its CRC and ISIZE checked, and end exactly where its stated
// length does; a whole-object task may stop short of dst. Either may not
// run past it.
//
// The archive's own decoder tries every task first: a member, or a
// whole object that is one member. Whatever it refuses is read again by
// compress/gzip, whose verdict and error text are final, so the input
// alone chooses the path.
func (t *inflateTask) run() {
	z := inflaterPool.Get().(*inflater)
	defer inflaterPool.Put(z)
	if n, ok := z.flate.gunzip(t.src, t.dst, t.member); ok {
		t.n, t.err = n, nil
		return
	}
	t.runGzip(z)
}

// runGzip inflates the task with z's compress/gzip reader.
func (t *inflateTask) runGzip(z *inflater) {
	t.n, t.err = 0, nil
	z.src.Reset(t.src)
	if err := z.gz.Reset(&z.src); err != nil {
		t.fail(fmt.Errorf("opening gzip stream: %v", err))
		return
	}
	z.gz.Multistream(!t.member)
	var err error
	for err == nil && t.n < len(t.dst) {
		var m int
		m, err = z.gz.Read(t.dst[t.n:])
		t.n += m
	}
	// Asking for more is what makes the gzip reader check the trailer.
	for err == nil {
		var m int
		if m, err = z.gz.Read(z.probe[:]); m > 0 {
			if t.member {
				t.fail(fmt.Errorf("inflates past the %d bytes its ISIZE states", len(t.dst)))
			} else {
				t.fail(fmt.Errorf("stream inflates past the %d bytes its manifest entry accounts for", len(t.dst)))
			}
			return
		}
	}
	// Every gzip error is kept: a truncated stream is io.ErrUnexpectedEOF,
	// not a short payload.
	switch {
	case err != io.EOF:
		t.fail(fmt.Errorf("decompressing: %v", err))
	case t.member && t.n < len(t.dst):
		t.fail(fmt.Errorf("inflates to %d bytes, its ISIZE states %d", t.n, len(t.dst)))
	case t.member && z.src.Len() > 0:
		t.fail(fmt.Errorf("ends %d bytes before its stated length", z.src.Len()))
	}
}

// fail records a task's error, placing a member's by its offset.
func (t *inflateTask) fail(err error) {
	if t.member {
		err = fmt.Errorf("gzip member at byte %d: %v", t.at, err)
	}
	t.err = err
}

// stream returns the segment's inflated records, the magic stripped, or
// the first failed task's error in stream order.
func (l *segmentLoad) stream() ([]byte, error) {
	n := 0
	for i := range l.tasks {
		if err := l.tasks[i].err; err != nil {
			return nil, err
		}
		n += l.tasks[i].n
	}
	// Members fill their stretches exactly, so the stream is a prefix.
	stream := l.buf[:n]
	if n < len(segmentMagic) || string(stream[:len(segmentMagic)]) != segmentMagic {
		return nil, fmt.Errorf("bad segment magic")
	}
	return stream[len(segmentMagic):], nil
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
