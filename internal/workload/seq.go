package workload

import "flowsched/internal/switchnet"

// Seq derives both reads of a FlowSource from one reader of a
// release-ordered flow sequence. read returns the next flow whatever its
// release, or ok=false once the sequence has ended; Seq holds back the
// one flow a PullBatch reads past its round, so any interleaving of Next
// and PullBatch yields exactly what read alone yields. A source embeds a
// Seq and supplies only its reader and its Err.
//
// PullBatch calls read, so read must never block: Seq serves generated,
// parsed and replayed sequences, not live feeds (see ChanSource).
type Seq struct {
	read func() (switchnet.Flow, bool)
	held switchnet.Flow
	have bool
}

// NewSeq returns a Seq over read.
func NewSeq(read func() (switchnet.Flow, bool)) Seq { return Seq{read: read} }

// Next implements FlowSource.
func (s *Seq) Next() (switchnet.Flow, bool) {
	if s.have {
		s.have = false
		return s.held, true
	}
	return s.read()
}

// PullBatch implements FlowSource. It reads until the first flow released
// after round and holds that flow for the next read.
func (s *Seq) PullBatch(dst []switchnet.Flow, round, max int) []switchnet.Flow {
	for n := 0; n < max; n++ {
		f, ok := s.Next()
		if !ok {
			break
		}
		if f.Release > round {
			s.held, s.have = f, true
			break
		}
		dst = append(dst, f)
	}
	return dst
}

// ended is the reader of a source that failed at construction.
func ended() (switchnet.Flow, bool) { return switchnet.Flow{}, false }

// generated returns a Seq over a stream drawn round by round: fill appends
// one round's arrivals (possibly none) to dst, and the stream ends after
// limit flows (0 = unbounded).
func generated(limit int64, fill func(dst []switchnet.Flow, round int) []switchnet.Flow) Seq {
	var buf []switchnet.Flow
	var pos, round int
	var emitted int64
	return NewSeq(func() (switchnet.Flow, bool) {
		if limit > 0 && emitted >= limit {
			return switchnet.Flow{}, false
		}
		for pos >= len(buf) {
			buf, pos = fill(buf[:0], round), 0
			round++
		}
		f := buf[pos]
		pos++
		emitted++
		return f, true
	})
}
