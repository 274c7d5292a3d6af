//! The client side of the skyserve line protocol: a blocking connection,
//! the reply fingerprint the passes compare by, and a reply parser for
//! the oracle check.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use crate::stats::{fnv1a, FNV_SEED};

/// One TCP client: one connection, one outstanding request at a time.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, writer: stream, reply: String::new() })
    }

    /// Sends `request` (which must end in a newline, so the request is
    /// one write) and returns the reply line without its newline.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<&str> {
        self.writer.write_all(request)?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.reply.trim_end())
    }
}

/// Fingerprint of a query reply `OK <n> <hit|miss> <point> ...` with the
/// `hit|miss` token dropped: which client's insert a concurrent query
/// raced with decides that token, never the answer. `None` for anything
/// that is not an `OK` query reply (an `ERR` line, a truncated line).
pub fn fingerprint(reply: &str) -> Option<u64> {
    let body = reply.strip_prefix("OK ")?;
    let (count, rest) = body.split_once(' ')?;
    let points = rest.split_once(' ').map_or("", |(_, points)| points);
    Some(fnv1a(points.as_bytes(), fnv1a(count.as_bytes(), FNV_SEED)))
}

/// The points of a query reply as coordinate bit patterns, sorted — the
/// form the oracle's answer is compared in. Checks the announced count.
pub fn reply_points(reply: &str) -> Result<Vec<Vec<u64>>, String> {
    let mut tokens = reply.split(' ');
    if tokens.next() != Some("OK") {
        return Err(format!("not an OK reply: {:.60}", reply));
    }
    let announced: usize =
        tokens.next().and_then(|n| n.parse().ok()).ok_or("reply lacks a point count")?;
    tokens.next().ok_or("reply lacks the hit|miss token")?;
    let mut points = Vec::with_capacity(announced);
    for token in tokens {
        let coords: Result<Vec<u64>, _> =
            token.split(',').map(|x| x.parse::<f64>().map(f64::to_bits)).collect();
        points.push(coords.map_err(|_| format!("bad point {token:?}"))?);
    }
    if points.len() != announced {
        return Err(format!("reply announces {announced} points and carries {}", points.len()));
    }
    points.sort();
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_ignores_only_the_hit_token() {
        let hit = fingerprint("OK 2 hit 1,2 2,1").unwrap();
        assert_eq!(hit, fingerprint("OK 2 miss 1,2 2,1").unwrap());
        assert_ne!(hit, fingerprint("OK 2 hit 1,2 2,2").unwrap());
        assert_ne!(hit, fingerprint("OK 1 hit 1,2").unwrap());
        assert_eq!(fingerprint("OK 0 miss"), fingerprint("OK 0 hit"));
        assert!(fingerprint("OK 0 miss").is_some());
        assert_eq!(fingerprint("ERR bad bound"), None);
        assert_eq!(fingerprint("OK"), None);
    }

    #[test]
    fn reply_points_parse_and_check_the_count() {
        let pts = reply_points("OK 2 hit 2,1 1,2.5").unwrap();
        assert_eq!(
            pts,
            vec![vec![1f64.to_bits(), 2.5f64.to_bits()], vec![2f64.to_bits(), 1f64.to_bits()]]
        );
        assert_eq!(reply_points("OK 0 miss").unwrap(), Vec::<Vec<u64>>::new());
        assert!(reply_points("OK 3 hit 1,2").is_err());
        assert!(reply_points("ERR nope").is_err());
        assert!(reply_points("OK 1 hit 1,x").is_err());
    }
}
