package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
)

// client is the benchmark's one closed-loop connection: it writes a
// pre-encoded request, reads the whole response, and only then sends the
// next. It runs on the caller's goroutine — no transport goroutines, no
// connection pool — so what it times is the daemon and the loopback, not
// its own scheduling.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	rx   int64  // bytes received so far
	body []byte // the last response body; valid until the next call
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &client{conn: conn}
	c.br = bufio.NewReaderSize(countingReader{conn, &c.rx}, 64<<10)
	return c, nil
}

type countingReader struct {
	r io.Reader
	n *int64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	*c.n += int64(n)
	return n, err
}

func (c *client) close() { _ = c.conn.Close() }

// do sends one framed request and returns the response's status code; the
// body is left in c.body.
func (c *client) do(req []byte) (int, error) {
	if _, err := c.conn.Write(req); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	c.body = c.body[:0]
	for {
		if len(c.body) == cap(c.body) {
			c.body = append(c.body, 0)[:len(c.body)]
		}
		n, err := resp.Body.Read(c.body[len(c.body):cap(c.body)])
		c.body = c.body[:len(c.body)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	return resp.StatusCode, resp.Body.Close()
}

// getJSON fetches path and decodes the 200 response into v.
func (c *client) getJSON(path string, v any) error {
	status, err := c.do(httpRequest("GET", path, nil))
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, c.body)
	}
	if err := json.Unmarshal(c.body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}
