// Wire encoding of result pairs, as they travel back from cluster
// workers: little-endian rid u64 | sid u64. (Join inputs travel
// column-wise, in internal/colpipe's slab codec.)

package tuple

import (
	"encoding/binary"
	"fmt"
)

// PairWireSize is the encoded size of one result pair.
const PairWireSize = 16

// AppendPair appends the wire encoding of p to dst.
func AppendPair(dst []byte, p Pair) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.RID))
	return binary.LittleEndian.AppendUint64(dst, uint64(p.SID))
}

// DecodePair decodes one pair from the front of b.
func DecodePair(b []byte) (Pair, error) {
	if len(b) < PairWireSize {
		return Pair{}, fmt.Errorf("tuple: decode pair: %d bytes, need %d", len(b), PairWireSize)
	}
	return Pair{
		RID: int64(binary.LittleEndian.Uint64(b)),
		SID: int64(binary.LittleEndian.Uint64(b[8:])),
	}, nil
}
