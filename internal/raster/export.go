package raster

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// WritePPM serializes im as a binary PPM (P6) with 8-bit channels,
// clamping values into [0, 1]. Useful for eyeballing renderer and ISP
// output during development.
func (im *RGB) WritePPM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", im.W, im.H); err != nil {
		return err
	}
	buf := make([]byte, 0, im.W*3)
	for y := 0; y < im.H; y++ {
		buf = buf[:0]
		for x := 0; x < im.W; x++ {
			i := y*im.W + x
			buf = append(buf, to8(im.R[i]), to8(im.G[i]), to8(im.B[i]))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SavePPM writes im to the named file as binary PPM.
func (im *RGB) SavePPM(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := im.WritePPM(f); err != nil {
		return err
	}
	return f.Close()
}

func to8(v float32) byte {
	v = Clamp01(v)
	return byte(v*255 + 0.5)
}
