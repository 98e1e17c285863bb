package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// SVG rendering of convergence curves — the literal figures of the paper
// (objective vs time on a log axis), written as self-contained SVG files
// next to the CSV data (the CSV is the accessible table view of every
// figure).
//
// Colors follow the entity, never the rank: each system has a fixed slot in
// a validated categorical palette (worst adjacent CVD ΔE 24.2 on the light
// surface; the low-contrast slots are relieved by the direct end-of-line
// labels rendered for every series).

// seriesColors is the fixed system→color mapping (categorical slots in a
// validated palette order; unknown systems fall back to a neutral ink).
var seriesColors = map[string]string{
	"MLlib*":   "#2a78d6", // slot 1, blue
	"Petuum*":  "#1baf7a", // slot 2, aqua
	"Angel":    "#eda100", // slot 3, yellow
	"MLlib":    "#008300", // slot 4, green
	"MLlib+MA": "#4a3aa7", // slot 5, violet
	"Petuum":   "#e34948", // slot 6, red
	"LBFGS*":   "#e87ba4", // slot 7, magenta
	"LBFGS":    "#eb6834", // slot 8, orange
}

// The figure palette, shared with the gantt charts (obs.Gantt.SVG).
const (
	SVGSurface   = "#fcfcfb"
	SVGInk       = "#0b0b0b"
	SVGInkSoft   = "#52514e"
	SVGGrid      = "#e4e3df"
	svgNeutral   = "#52514e"
	SVGFontStack = "system-ui, -apple-system, sans-serif"
)

// SVGOptions configures RenderSVG.
type SVGOptions struct {
	Title  string
	Width  int  // default 720
	Height int  // default 440
	LogX   bool // logarithmic time axis (the paper's convention)
}

// RenderSVG renders the curves as an SVG line chart of objective vs
// simulated time. Curves with fewer than two positive-time points are
// skipped on a log axis.
func RenderSVG(curves []*Curve, opts SVGOptions) string {
	w, h := opts.Width, opts.Height
	if w <= 0 {
		w = 720
	}
	if h <= 0 {
		h = 440
	}
	const (
		marginL = 64
		marginR = 120 // room for direct end labels
		marginT = 44
		marginB = 48
	)
	plotW := float64(w - marginL - marginR)
	plotH := float64(h - marginT - marginB)

	// Data extent.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	type series struct {
		name   string
		color  string
		points []Point
	}
	var drawn []series
	for _, c := range curves {
		var pts []Point
		for _, p := range c.Points {
			if opts.LogX && p.Time <= 0 {
				continue
			}
			pts = append(pts, p)
		}
		if len(pts) < 2 {
			continue
		}
		color, ok := seriesColors[c.System]
		if !ok {
			color = svgNeutral
		}
		for _, p := range pts {
			x := p.Time
			if opts.LogX {
				x = math.Log10(p.Time)
			}
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, p.Objective), math.Max(maxY, p.Objective)
		}
		drawn = append(drawn, series{name: c.System, color: color, points: pts})
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="%s">`,
		w, h, w, h, SVGFontStack)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="%s"/>`, w, h, SVGSurface)
	if opts.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="26" font-size="15" font-weight="600" fill="%s">%s</text>`,
			marginL, SVGInk, EscapeSVG(opts.Title))
	}
	if len(drawn) == 0 {
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="13" fill="%s">no drawable series</text></svg>`,
			marginL, h/2, SVGInkSoft)
		return b.String()
	}
	//mlstar:nolint floateq -- exact compare intentional: guards the fully degenerate range before dividing
	if maxX == minX {
		maxX = minX + 1
	}
	//mlstar:nolint floateq -- exact compare intentional: guards the fully degenerate range before dividing
	if maxY == minY {
		maxY = minY + 1
	}
	// A little headroom on y.
	pad := (maxY - minY) * 0.05
	minY -= pad
	maxY += pad

	px := func(x float64) float64 { return marginL + (x-minX)/(maxX-minX)*plotW }
	py := func(y float64) float64 { return marginT + (maxY-y)/(maxY-minY)*plotH }

	// Recessive grid + axis labels: ~5 y ticks, x ticks at decades (log) or
	// 5 even ticks (linear).
	for i := 0; i <= 4; i++ {
		y := minY + (maxY-minY)*float64(i)/4
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="1"/>`,
			marginL, py(y), marginL+plotW, py(y), SVGGrid)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-size="11" fill="%s" text-anchor="end">%.3g</text>`,
			marginL-8, py(y)+4, SVGInkSoft, y)
	}
	if opts.LogX {
		for d := math.Floor(minX); d <= math.Ceil(maxX); d++ {
			if d < minX || d > maxX {
				continue
			}
			fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="1"/>`,
				px(d), marginT, px(d), marginT+plotH, SVGGrid)
			fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" fill="%s" text-anchor="middle">%s</text>`,
				px(d), marginT+plotH+18, SVGInkSoft, logTickLabel(d))
		}
	} else {
		for i := 0; i <= 4; i++ {
			x := minX + (maxX-minX)*float64(i)/4
			fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" fill="%s" text-anchor="middle">%.3g</text>`,
				px(x), marginT+plotH+18, SVGInkSoft, x)
		}
	}
	// Axis titles in text ink.
	fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="12" fill="%s" text-anchor="middle">simulated time (s)</text>`,
		marginL+plotW/2, h-10, SVGInkSoft)
	fmt.Fprintf(&b, `<text x="16" y="%.1f" font-size="12" fill="%s" text-anchor="middle" transform="rotate(-90 16 %.1f)">objective</text>`,
		marginT+plotH/2, SVGInkSoft, marginT+plotH/2)

	// Series: 2px lines, per-point <title> tooltips via invisible hit
	// circles, direct end labels (the relief for low-contrast hues).
	type label struct {
		y     float64
		text  string
		color string
	}
	var labels []label
	for _, s := range drawn {
		var path strings.Builder
		for i, p := range s.points {
			x := p.Time
			if opts.LogX {
				x = math.Log10(p.Time)
			}
			cmd := "L"
			if i == 0 {
				cmd = "M"
			}
			fmt.Fprintf(&path, "%s%.1f %.1f", cmd, px(x), py(p.Objective))
		}
		fmt.Fprintf(&b, `<path d="%s" fill="none" stroke="%s" stroke-width="2" stroke-linejoin="round"/>`,
			path.String(), s.color)
		// Sparse native tooltips on sampled points.
		stride := len(s.points)/12 + 1
		for i := 0; i < len(s.points); i += stride {
			p := s.points[i]
			x := p.Time
			if opts.LogX {
				x = math.Log10(p.Time)
			}
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="7" fill="transparent"><title>%s — step %d, t=%.4gs, f=%.4f</title></circle>`,
				px(x), py(p.Objective), EscapeSVG(s.name), p.Step, p.Time, p.Objective)
		}
		last := s.points[len(s.points)-1]
		lx := last.Time
		if opts.LogX {
			lx = math.Log10(last.Time)
		}
		labels = append(labels, label{y: py(last.Objective), text: s.name, color: s.color})
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`, px(lx), py(last.Objective), s.color)
	}
	// Collision-avoid the end labels: sort by y, enforce 14px spacing.
	sort.Slice(labels, func(i, j int) bool { return labels[i].y < labels[j].y })
	for i := 1; i < len(labels); i++ {
		if labels[i].y-labels[i-1].y < 14 {
			labels[i].y = labels[i-1].y + 14
		}
	}
	for _, l := range labels {
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="4" fill="%s"/>`, marginL+plotW+10, l.y-4, l.color)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="12" fill="%s">%s</text>`,
			marginL+plotW+18, l.y, SVGInk, EscapeSVG(l.text))
	}
	b.WriteString(`</svg>`)
	return b.String()
}

// logTickLabel formats a decade tick 10^d compactly.
func logTickLabel(d float64) string {
	v := math.Pow(10, d)
	if v >= 0.001 && v < 10000 {
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", v), "0"), ".")
	}
	return fmt.Sprintf("1e%d", int(d))
}

// EscapeSVG escapes s for SVG text and attribute values.
func EscapeSVG(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
