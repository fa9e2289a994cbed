package par

// Pair is one drawn interaction between two distinct node indices: A
// initiated, B is the peer.
type Pair struct {
	A, B int32
}
