//go:build !amd64

package viz

// sumWords is chooseFilter's word loop. Without an assembly kernel it
// is the portable SWAR loop.
func sumWords(cd, pd, pth []byte, bpp int, sums *[5]int) int {
	return sumWordsSWAR(cd, pd, pth, bpp, sums)
}
