package cyclon

import (
	"testing"

	"github.com/glap-sim/glap/internal/sim"
)

// FuzzCyclonMerge drives merge directly with arbitrary views, received and
// sent entries, and checks what every shuffle relies on afterwards: no peer
// twice, never the owner itself, at most ViewSize entries, no peer that was
// neither in the view nor received live, and the peer index in marks
// describing the merged view exactly — each entry's peer stamped with the
// current generation at its own slot, no other peer stamped live.
//
// The input is a header then a sequence of merges on one Protocol value, so
// later merges run over the marks earlier ones left behind. Header: byte 0
// sets ViewSize (1–16); byte 1, when odd, parks the generation counter up to
// seven merges below its wrap; byte 2 switches nodes 16–23 of the 24-node
// engine off, one bit each. Each merge is four bytes — self, then the view,
// sent and received lengths (mod 17) — followed by that many entry bytes: the
// low five bits pick the peer (mod 24), the top three its age. View entries
// that would repeat a peer, name self or overflow ViewSize are dropped, as
// the protocol never builds such a view; sent and received entries are kept
// as they come. The seed corpus in testdata/fuzz/FuzzCyclonMerge covers an
// empty input, a full view evicting sent-away entries, a partial view
// filling up from replies naming self, duplicates and dead peers, oldest-entry
// evictions on equal-age ties, a generation wrap between merges, and sent
// entries outside the view.
func FuzzCyclonMerge(f *testing.F) {
	const nodes = 24
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		e := sim.NewEngine(nodes, 1)
		c := New(1+int(data[0]%16), 1)
		if data[1]&1 == 1 {
			c.marks, c.gen = make([]peerMark, nodes), ^uint32(0)-uint32(data[1]>>1&7)
		}
		for b := 0; b < 8; b++ {
			if data[2]>>b&1 == 1 {
				e.SetUp(e.Node(16+b), false)
			}
		}
		entry := func(b byte) Entry { return Entry{Peer: int(b&31) % nodes, Age: int(b >> 5)} }
		in := data[3:]
		for len(in) >= 4 {
			self := int(in[0]) % nodes
			nView, nSent, nRecv := int(in[1]%17), int(in[2]%17), int(in[3]%17)
			in = in[4:]
			take := func(n int) []Entry {
				n = min(n, len(in))
				out := make([]Entry, n)
				for i := range out {
					out[i] = entry(in[i])
				}
				in = in[n:]
				return out
			}
			v := &View{}
			known := map[int]bool{}
			for _, en := range take(nView) {
				if en.Peer != self && !known[en.Peer] && len(v.entries) < c.ViewSize {
					v.entries = append(v.entries, en)
					known[en.Peer] = true
				}
			}
			sent, received := take(nSent), take(nRecv)
			for _, r := range received {
				if e.Node(r.Peer).Up() {
					known[r.Peer] = true
				}
			}

			c.merge(e, v, self, received, sent)

			if len(v.entries) > c.ViewSize {
				t.Fatalf("view holds %d entries, ViewSize %d", len(v.entries), c.ViewSize)
			}
			seen := map[int]bool{}
			for i, en := range v.entries {
				switch {
				case en.Peer == self:
					t.Fatalf("slot %d holds the owner %d: %v", i, self, v.entries)
				case seen[en.Peer]:
					t.Fatalf("peer %d twice in the view: %v", en.Peer, v.entries)
				case !known[en.Peer]:
					t.Fatalf("peer %d neither in the view nor received live: %v", en.Peer, v.entries)
				}
				seen[en.Peer] = true
				if m := c.marks[en.Peer]; m != (peerMark{gen: c.gen, slot: int32(i)}) {
					t.Fatalf("slot %d (peer %d) marked %+v, generation %d", i, en.Peer, m, c.gen)
				}
			}
			for p, m := range c.marks {
				if m.gen == c.gen && !seen[p] {
					t.Fatalf("peer %d marked live at slot %d but not in the view: %v", p, m.slot, v.entries)
				}
			}
		}
	})
}
