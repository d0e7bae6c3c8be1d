package viz

import (
	"fmt"
	"image"
	"image/color"
	"image/draw"
)

// glyphs is a 5x7 bitmap font covering the characters the frame footer
// needs: digits, uppercase hex-ish letters used in labels, and
// punctuation. Each entry is 7 rows of 5 bits, MSB left.
var glyphs = map[rune][7]byte{
	'0': {0b01110, 0b10001, 0b10011, 0b10101, 0b11001, 0b10001, 0b01110},
	'1': {0b00100, 0b01100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110},
	'2': {0b01110, 0b10001, 0b00001, 0b00110, 0b01000, 0b10000, 0b11111},
	'3': {0b01110, 0b10001, 0b00001, 0b00110, 0b00001, 0b10001, 0b01110},
	'4': {0b00010, 0b00110, 0b01010, 0b10010, 0b11111, 0b00010, 0b00010},
	'5': {0b11111, 0b10000, 0b11110, 0b00001, 0b00001, 0b10001, 0b01110},
	'6': {0b00110, 0b01000, 0b10000, 0b11110, 0b10001, 0b10001, 0b01110},
	'7': {0b11111, 0b00001, 0b00010, 0b00100, 0b01000, 0b01000, 0b01000},
	'8': {0b01110, 0b10001, 0b10001, 0b01110, 0b10001, 0b10001, 0b01110},
	'9': {0b01110, 0b10001, 0b10001, 0b01111, 0b00001, 0b00010, 0b01100},
	'.': {0, 0, 0, 0, 0, 0b00110, 0b00110},
	'-': {0, 0, 0, 0b11111, 0, 0, 0},
	'+': {0, 0b00100, 0b00100, 0b11111, 0b00100, 0b00100, 0},
	'=': {0, 0, 0b11111, 0, 0b11111, 0, 0},
	' ': {},
	':': {0, 0b00110, 0b00110, 0, 0b00110, 0b00110, 0},
	'T': {0b11111, 0b00100, 0b00100, 0b00100, 0b00100, 0b00100, 0b00100},
	'S': {0b01111, 0b10000, 0b10000, 0b01110, 0b00001, 0b00001, 0b11110},
	'E': {0b11111, 0b10000, 0b10000, 0b11110, 0b10000, 0b10000, 0b11111},
	'P': {0b11110, 0b10001, 0b10001, 0b11110, 0b10000, 0b10000, 0b10000},
	'I': {0b01110, 0b00100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110},
	'M': {0b10001, 0b11011, 0b10101, 0b10101, 0b10001, 0b10001, 0b10001},
	'X': {0b10001, 0b10001, 0b01010, 0b00100, 0b01010, 0b10001, 0b10001},
	'N': {0b10001, 0b11001, 0b10101, 0b10011, 0b10001, 0b10001, 0b10001},
	'A': {0b01110, 0b10001, 0b10001, 0b11111, 0b10001, 0b10001, 0b10001},
}

const (
	glyphW = 6 // 5 px + 1 spacing
	glyphH = 7
)

// DrawText rasterizes s at (x, y) with the 5x7 bitmap font. Unknown
// characters render as blanks. Returns the advance width.
func DrawText(img *image.RGBA, x, y int, s string, c color.RGBA) int {
	for _, r := range s {
		g, ok := glyphs[r]
		if ok {
			for row := 0; row < glyphH; row++ {
				bits := g[row]
				for col := 0; col < 5; col++ {
					if bits&(1<<(4-col)) != 0 {
						px, py := x+col, y+row
						if image.Pt(px, py).In(img.Bounds()) {
							img.SetRGBA(px, py, c)
						}
					}
				}
			}
		}
		x += glyphW
	}
	return x
}

// AnnotateOptions configures the frame footer and colorbar.
type AnnotateOptions struct {
	// Step and SimTime print in the footer ("T=12.5 STEP=4096").
	Step    uint64
	SimTime float64
	// Colormap and Lo/Hi drive the colorbar; a nil colormap skips it.
	Colormap *Colormap
	Lo, Hi   float64
}

// Annotate stamps a footer bar (simulation time + step) and a
// horizontal colorbar with min/max labels onto a rendered frame,
// in place. It is what turns a raw raster into the frame a scientist
// monitors — and it adds to the frame's real encoded size.
func Annotate(img *image.RGBA, opts AnnotateOptions) {
	b := img.Bounds()
	const footerH = 14
	if b.Dy() < 3*footerH || b.Dx() < 120 {
		return // too small to annotate legibly
	}
	footer := image.Rect(b.Min.X, b.Max.Y-footerH, b.Max.X, b.Max.Y)
	draw.Draw(img, footer, &image.Uniform{color.RGBA{0, 0, 0, 255}}, image.Point{}, draw.Src)

	white := color.RGBA{255, 255, 255, 255}
	text := fmt.Sprintf("T=%.2f STEP=%d", opts.SimTime, opts.Step)
	DrawText(img, b.Min.X+4, b.Max.Y-footerH+3, text, white)

	if opts.Colormap == nil {
		return
	}
	// Colorbar: right third of the footer.
	barW := b.Dx() / 3
	bar := image.Rect(b.Max.X-barW-4, b.Max.Y-footerH+3, b.Max.X-4, b.Max.Y-3)
	for x := bar.Min.X; x < bar.Max.X; x++ {
		t := float64(x-bar.Min.X) / float64(bar.Dx()-1)
		c := opts.Colormap.Map(t)
		for y := bar.Min.Y; y < bar.Max.Y; y++ {
			img.SetRGBA(x, y, c)
		}
	}
	// Lo/Hi labels flank the bar.
	lo := fmt.Sprintf("%.0f", opts.Lo)
	hi := fmt.Sprintf("%.0f", opts.Hi)
	DrawText(img, bar.Min.X-len(lo)*glyphW-2, bar.Min.Y, lo, white)
	DrawText(img, bar.Max.X-len(hi)*glyphW, bar.Min.Y, hi, color.RGBA{0, 0, 0, 255})
}
