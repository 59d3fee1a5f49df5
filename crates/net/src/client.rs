//! Blocking client for the framed protocol. One [`Client`] wraps one
//! TCP connection; `call` is the simple request/response path, while
//! `send`/`recv` expose pipelining (many requests in flight, answers
//! correlated by id).

use crate::frame;
use crate::wire::{WireRequest, WireResponse};
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connected protocol client.
pub struct Client {
    /// Reads are buffered; frames are written straight to the socket
    /// (`get_ref`), each in one `write` — see [`frame`].
    stream: BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connects once.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Client::from_stream(stream)
    }

    /// Connects with retries — the standard way to wait for a freshly
    /// spawned `mmjoin-netd` to start listening.
    pub fn connect_retry(
        addr: impl ToSocketAddrs + Clone,
        attempts: u32,
        delay: Duration,
    ) -> io::Result<Client> {
        let mut last = None;
        for _ in 0..attempts.max(1) {
            match Client::connect(addr.clone()) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(delay);
                }
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("no connection attempts made")))
    }

    fn from_stream(stream: TcpStream) -> io::Result<Client> {
        // A request is one small segment the server is waiting for:
        // never hold it back for coalescing.
        stream.set_nodelay(true)?;
        Ok(Client {
            stream: BufReader::new(stream),
            next_id: 1,
        })
    }

    #[cfg(test)]
    pub(crate) fn socket(&self) -> &TcpStream {
        self.stream.get_ref()
    }

    /// Sends one command line, returning its correlation id without
    /// waiting for the answer (pipelining).
    pub fn send(&mut self, line: &str) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let req = WireRequest {
            id,
            line: line.to_string(),
        };
        frame::write_frame(&mut self.stream.get_ref(), &req.encode())?;
        Ok(id)
    }

    /// Receives the next response frame (in server-send order).
    pub fn recv(&mut self) -> io::Result<WireResponse> {
        let payload = frame::read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        WireResponse::decode(&payload)
    }

    /// Request/response: sends `line` and waits for its answer.
    pub fn call(&mut self, line: &str) -> io::Result<WireResponse> {
        let id = self.send(line)?;
        let resp = self.recv()?;
        if resp.id != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response id {} does not match request id {id}", resp.id),
            ));
        }
        Ok(resp)
    }
}
