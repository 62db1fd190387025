//! A minimal HTTP/1.1 keep-alive client for `serve_http`: one request in
//! flight per connection, so each connection is one closed-loop client.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use hd_core::topk::Neighbor;
use hd_telemetry::json::{self, Json};

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A stalled server fails the request instead of hanging the run.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one pre-rendered request and reads the whole reply:
    /// `(status, body)`.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.writer.write_all(request)?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
        let mut content_length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "reply headers cut short",
                ));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| invalid(format!("bad content-length {value:?}")))?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// `POST /v1/query` for one vector with explicit per-request budgets.
pub fn query_request(vector: &[f32], k: usize, candidates: usize, refine: usize) -> Vec<u8> {
    let items: Vec<String> = vector.iter().map(|x| x.to_string()).collect();
    let body = format!(
        "{{\"vector\":[{}],\"k\":{k},\"candidates\":{candidates},\"refine\":{refine}}}",
        items.join(",")
    );
    format!(
        "POST /v1/query HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The `neighbors` array of a single-query reply.
pub fn parse_neighbors(body: &[u8]) -> Result<Vec<Neighbor>, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("reply is not UTF-8: {e}"))?;
    let reply = json::parse(text).map_err(|e| e.to_string())?;
    let neighbors = reply
        .get("neighbors")
        .and_then(Json::as_arr)
        .ok_or("reply has no neighbors array")?;
    neighbors
        .iter()
        .map(|nb| {
            let id = nb
                .get("id")
                .and_then(Json::as_u64)
                .ok_or("neighbour without an id")?;
            let dist = nb
                .get("dist")
                .and_then(Json::as_f64)
                .ok_or("neighbour without a dist")?;
            Ok(Neighbor::new(id, dist as f32))
        })
        .collect()
}
