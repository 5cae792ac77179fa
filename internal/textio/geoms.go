package textio

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"spatialjoin/internal/extgeom"
	"spatialjoin/internal/geom"
)

// Geometry text format, one object per line, WKT-flavoured:
//
//	POINT (x y)
//	BOX (x1 y1, x2 y2)            — shorthand, parsed into a 4-vertex polygon
//	LINESTRING (x1 y1, x2 y2, …)  — at least 2 vertices
//	POLYGON ((x1 y1, …, x1 y1))   — single ring, explicitly closed
//
// Blank lines and '#' comments are skipped. Coordinates must be finite:
// NaN and ±Inf are rejected — they would poison every MBR and sweep
// comparison downstream. Ids are assigned sequentially from idBase.

// ReadGeoms parses geometry objects from r.
func ReadGeoms(r io.Reader, idBase int64) ([]extgeom.Object, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []extgeom.Object
	id := idBase
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		o, err := ParseGeom(line, id)
		if err != nil {
			return nil, fmt.Errorf("textio: line %d: %w", lineNo, err)
		}
		out = append(out, o)
		id++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("textio: %w", err)
	}
	return out, nil
}

// ParseGeom parses a single geometry line.
func ParseGeom(line string, id int64) (extgeom.Object, error) {
	tag, rest, ok := cutTag(line)
	if !ok {
		return extgeom.Object{}, fmt.Errorf("no geometry tag in %q", clip(line))
	}
	switch tag {
	case "POINT":
		pts, err := parseCoordList(rest, 0)
		if err != nil {
			return extgeom.Object{}, err
		}
		if len(pts) != 1 {
			return extgeom.Object{}, fmt.Errorf("POINT needs exactly one coordinate pair, got %d", len(pts))
		}
		return extgeom.NewPoint(id, pts[0]), nil
	case "BOX":
		pts, err := parseCoordList(rest, 0)
		if err != nil {
			return extgeom.Object{}, err
		}
		if len(pts) != 2 {
			return extgeom.Object{}, fmt.Errorf("BOX needs exactly two corner pairs, got %d", len(pts))
		}
		lo := geom.Point{X: math.Min(pts[0].X, pts[1].X), Y: math.Min(pts[0].Y, pts[1].Y)}
		hi := geom.Point{X: math.Max(pts[0].X, pts[1].X), Y: math.Max(pts[0].Y, pts[1].Y)}
		if lo.X == hi.X || lo.Y == hi.Y {
			return extgeom.Object{}, fmt.Errorf("BOX is degenerate: corners %v and %v", pts[0], pts[1])
		}
		return extgeom.NewPolygon(id, []geom.Point{
			lo, {X: hi.X, Y: lo.Y}, hi, {X: lo.X, Y: hi.Y},
		}), nil
	case "LINESTRING":
		pts, err := parseCoordList(rest, 0)
		if err != nil {
			return extgeom.Object{}, err
		}
		if len(pts) < 2 {
			return extgeom.Object{}, fmt.Errorf("LINESTRING needs at least 2 vertices, got %d", len(pts))
		}
		return extgeom.NewPolyline(id, pts), nil
	case "POLYGON":
		pts, err := parseCoordList(rest, 1)
		if err != nil {
			return extgeom.Object{}, err
		}
		if len(pts) < 4 {
			return extgeom.Object{}, fmt.Errorf("POLYGON ring needs at least 4 vertices (closed), got %d", len(pts))
		}
		if pts[0] != pts[len(pts)-1] {
			return extgeom.Object{}, fmt.Errorf("POLYGON ring is not closed: first %v, last %v", pts[0], pts[len(pts)-1])
		}
		if distinctPoints(pts[:len(pts)-1]) < 3 {
			return extgeom.Object{}, fmt.Errorf("POLYGON ring is degenerate: fewer than 3 distinct vertices")
		}
		o := extgeom.NewPolygon(id, pts[:len(pts)-1])
		if err := o.Validate(); err != nil {
			return extgeom.Object{}, err
		}
		return o, nil
	default:
		return extgeom.Object{}, fmt.Errorf("unknown geometry tag %q", tag)
	}
}

// cutTag splits "TAG (rest" into the upper-cased tag and the
// parenthesised remainder.
func cutTag(line string) (tag, rest string, ok bool) {
	i := strings.IndexByte(line, '(')
	if i < 0 {
		return "", "", false
	}
	return strings.ToUpper(strings.TrimSpace(line[:i])), line[i:], true
}

// parseCoordList parses "(x y, x y, …)" — or, at depth 1, the single
// extra paren level of "((…))" — into points, enforcing finiteness and
// balanced parentheses with nothing trailing.
func parseCoordList(s string, depth int) ([]geom.Point, error) {
	s = strings.TrimSpace(s)
	for d := 0; d <= depth; d++ {
		if !strings.HasPrefix(s, "(") || !strings.HasSuffix(s, ")") {
			return nil, fmt.Errorf("unbalanced parentheses in %q", clip(s))
		}
		s = strings.TrimSpace(s[1 : len(s)-1])
	}
	if strings.ContainsAny(s, "()") {
		return nil, fmt.Errorf("unexpected parenthesis inside coordinate list %q", clip(s))
	}
	parts := strings.Split(s, ",")
	pts := make([]geom.Point, 0, len(parts))
	for _, part := range parts {
		fs := strings.Fields(part)
		if len(fs) != 2 {
			return nil, fmt.Errorf("coordinate pair %q is not two numbers", clip(strings.TrimSpace(part)))
		}
		x, err := parseFinite(fs[0])
		if err != nil {
			return nil, err
		}
		y, err := parseFinite(fs[1])
		if err != nil {
			return nil, err
		}
		pts = append(pts, geom.Point{X: x, Y: y})
	}
	return pts, nil
}

// distinctPoints counts the distinct vertices in pts — a closed ring
// collapsing to fewer than 3 has no interior and breaks containment.
func distinctPoints(pts []geom.Point) int {
	seen := make(map[geom.Point]struct{}, len(pts))
	for _, p := range pts {
		seen[p] = struct{}{}
	}
	return len(seen)
}

func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad coordinate %q: %w", clip(s), err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite coordinate %q", clip(s))
	}
	return v, nil
}

// clip bounds error-message payloads so hostile input cannot flood logs.
func clip(s string) string {
	if len(s) > 64 {
		return s[:64] + "…"
	}
	return s
}

// WriteGeoms serialises objects to w, one per line, in the format
// ReadGeoms parses (polygons are written with the ring explicitly
// closed).
func WriteGeoms(w io.Writer, objs []extgeom.Object) error {
	bw := bufio.NewWriter(w)
	for i := range objs {
		if _, err := bw.WriteString(FormatGeom(&objs[i]) + "\n"); err != nil {
			return fmt.Errorf("textio: %w", err)
		}
	}
	return bw.Flush()
}

// FormatGeom renders one object as a geometry text line.
func FormatGeom(o *extgeom.Object) string {
	var b strings.Builder
	writePair := func(p geom.Point) {
		b.WriteString(strconv.FormatFloat(p.X, 'g', -1, 64))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(p.Y, 'g', -1, 64))
	}
	switch o.Kind {
	case extgeom.KindPoint:
		b.WriteString("POINT (")
		writePair(o.Verts[0])
		b.WriteString(")")
	case extgeom.KindPolyline:
		b.WriteString("LINESTRING (")
		for i, v := range o.Verts {
			if i > 0 {
				b.WriteString(", ")
			}
			writePair(v)
		}
		b.WriteString(")")
	case extgeom.KindPolygon:
		b.WriteString("POLYGON ((")
		for i, v := range o.Verts {
			if i > 0 {
				b.WriteString(", ")
			}
			writePair(v)
		}
		b.WriteString(", ")
		writePair(o.Verts[0]) // close the ring on the wire
		b.WriteString("))")
	}
	return b.String()
}

// WriteGeomsFile writes a geometry data set to a file.
func WriteGeomsFile(path string, objs []extgeom.Object) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("textio: %w", err)
	}
	if err := WriteGeoms(f, objs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
