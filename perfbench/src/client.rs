//! A minimal HTTP/1.1 client for the server's plain-text API: one-shot
//! requests for setup and scrapes, and keep-alive connections for the
//! closed `/predict` loop.

use autobias_serve::http::read_response_head;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One request on a fresh `Connection: close` socket; returns status and
/// body.
pub fn oneshot(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<(u16, String)> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(IO_TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    conn.write_all(head.as_bytes())?;
    conn.write_all(body.as_bytes())?;
    let mut raw = String::new();
    conn.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other(format!("unparsable response: {raw:.80?}")))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// A keep-alive connection issuing sequential requests. The server rotates
/// a connection after a fixed number of requests; the client reconnects
/// once and counts it, and the reconnect lands in that request's latency
/// as it would for any real caller.
pub struct Client {
    addr: SocketAddr,
    write_half: TcpStream,
    reader: BufReader<TcpStream>,
    /// Reconnects after the server closed the connection.
    pub reconnects: u64,
}

impl Client {
    /// Opens a connection with Nagle off.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        conn.set_read_timeout(Some(IO_TIMEOUT))?;
        let reader = BufReader::new(conn.try_clone()?);
        Ok(Self {
            addr,
            write_half: conn,
            reader,
            reconnects: 0,
        })
    }

    fn try_request(&mut self, path: &str, body: &str, out: &mut Vec<u8>) -> io::Result<u16> {
        let head = format!(
            "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.write_half.write_all(head.as_bytes())?;
        self.write_half.write_all(body.as_bytes())?;
        let (status, headers) = read_response_head(&mut self.reader)?;
        let len: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| io::Error::other("response without content-length"))?;
        out.clear();
        out.resize(len, 0);
        self.reader.read_exact(out)?;
        Ok(status)
    }

    /// POSTs `body` to `path`, writing the response body into `out`.
    pub fn post(&mut self, path: &str, body: &str, out: &mut Vec<u8>) -> io::Result<u16> {
        match self.try_request(path, body, out) {
            Ok(status) => Ok(status),
            Err(_) => {
                let reconnects = self.reconnects + 1;
                *self = Client::connect(self.addr)?;
                self.reconnects = reconnects;
                self.try_request(path, body, out)
            }
        }
    }
}

/// Value of an unlabelled sample `name` in a Prometheus text scrape.
pub fn metric_sample(scrape: &str, name: &str) -> Option<f64> {
    scrape.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?.strip_prefix(' ')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_unlabelled_samples_only() {
        let scrape = "# HELP x_total help\n# TYPE x_total counter\nx_total 42\n\
                      x_total_more 7\ny{model=\"m\"} 3\ny 5.5\n";
        assert_eq!(metric_sample(scrape, "x_total"), Some(42.0));
        assert_eq!(metric_sample(scrape, "y"), Some(5.5));
        assert_eq!(metric_sample(scrape, "z"), None);
    }
}
