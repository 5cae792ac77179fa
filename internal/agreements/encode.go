package agreements

// Wire size of a resolved graph of agreements, for the broadcast step
// of the paper's Algorithm 5 (line 6: the driver ships the grid and its
// agreements to every worker). After resolution only the agreement types
// and edge marks matter for point assignment — locks exist solely to
// steer Algorithm 1 and weights solely to order it — so each quartet
// costs exactly three bytes: the low 18 bits of its stored word (see
// table.go), 6 type bits (one per unordered cell pair in canonical order)
// and 12 mark bits (one per directed edge), little-endian. The record
// layout is
//
//	magic "SJAG" | version u8 | policy u8
//	bounds 4×f64 | eps f64 | res f64
//	quartet count u32 | 3 bytes per quartet
//
// No engine ships these bytes — the cluster coordinator maps and
// replicates itself and sends workers finished partitions — so the
// format exists only as the modelled broadcast cost that EncodedSize
// reports.
const (
	// bytesPerQuartet is the per-quartet payload: types + marks.
	bytesPerQuartet = 3
	headerBytes     = 4 + 1 + 1 + 6*8 + 4
)

// EncodedSize returns the wire size of the resolved graph in the format
// above — the broadcast cost of the graph.
func (gr *Graph) EncodedSize() int {
	return headerBytes + bytesPerQuartet*len(gr.words)
}
