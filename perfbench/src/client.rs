//! The closed-loop load client: each client thread holds one keep-alive
//! connection and sends its next request only after the previous reply
//! arrived, so a slower server receives less load.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ceserve::http;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the body sent.
    pub item: usize,
    /// HTTP status; 0 when the request was refused or the transport
    /// failed before a full response arrived.
    pub status: u16,
    /// Content hash of the response body, a key of [`LoopRun::bodies`]
    /// (the hash of the empty body on failure).
    pub body: u64,
    /// Seconds from the first request byte written to the last response
    /// byte read; infinite for a failed request, which misses every
    /// latency limit.
    pub latency: f64,
    /// Seconds from the start of the run until the reply arrived.
    pub done_s: f64,
}

impl Sample {
    /// Whether the request got a `200`.
    pub fn ok(&self) -> bool {
        self.status == 200
    }
}

/// The outcome of one closed-loop run.
#[derive(Debug)]
pub struct LoopRun {
    /// Every request attempted, across clients.
    pub samples: Vec<Sample>,
    /// Each distinct response body once, by content hash. A repeated
    /// reply is stored once, so a long hot run holds few bodies.
    pub bodies: HashMap<u64, String>,
    /// Wall clock from start until the last client finished: the run's
    /// duration plus the requests still in flight at its deadline.
    pub wall: Duration,
}

/// Drives `clients` closed-loop clients against `addr` until `duration`
/// has passed, each sending `POST /v1/evaluate` with a body drawn
/// uniformly from `bodies` by its own stream seeded from `seed`.
pub fn run(
    addr: SocketAddr,
    bodies: &[String],
    clients: usize,
    duration: Duration,
    seed: u64,
) -> LoopRun {
    let started = Instant::now();
    let deadline = started + duration;
    let mut samples = Vec::new();
    let mut replies = HashMap::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|client| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(
                        seed ^ (client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    );
                    let mut conn: Option<(TcpStream, BufReader<TcpStream>)> = None;
                    let mut out = Vec::new();
                    let mut replies = HashMap::new();
                    while Instant::now() < deadline {
                        let item = rng.gen_range(0..bodies.len());
                        let (mut sample, reply) = request(addr, &mut conn, item, &bodies[item]);
                        sample.done_s = started.elapsed().as_secs_f64();
                        replies.entry(sample.body).or_insert(reply);
                        out.push(sample);
                    }
                    (out, replies)
                })
            })
            .collect();
        for handle in handles {
            let (out, client_replies) = handle.join().expect("load client panicked");
            samples.extend(out);
            replies.extend(client_replies);
        }
    });
    LoopRun {
        samples,
        bodies: replies,
        wall: started.elapsed(),
    }
}

/// Sends one request on the client's connection, opening it first when
/// needed, and returns it with the response body. Any failure drops the
/// connection, so the next request opens a fresh one; the failed request
/// itself is never re-sent.
fn request(
    addr: SocketAddr,
    conn: &mut Option<(TcpStream, BufReader<TcpStream>)>,
    item: usize,
    body: &str,
) -> (Sample, String) {
    let failed = (
        Sample {
            item,
            status: 0,
            body: yamlkit::doc::content_hash(""),
            latency: f64::INFINITY,
            done_s: 0.0,
        },
        String::new(),
    );
    if conn.is_none() {
        *conn = connect(addr);
    }
    let Some((stream, reader)) = conn.as_mut() else {
        // Refused: back off briefly so a dead server cannot spin the loop.
        std::thread::sleep(Duration::from_millis(1));
        return failed;
    };
    let started = Instant::now();
    let response = http::write_request(stream, "POST", "/v1/evaluate", Some(body))
        .ok()
        .and_then(|()| http::read_response(reader).ok());
    let latency = started.elapsed().as_secs_f64();
    match response {
        Some(response) => (
            Sample {
                item,
                status: response.status,
                latency: if response.status == 200 {
                    latency
                } else {
                    f64::INFINITY
                },
                body: yamlkit::doc::content_hash(&response.body),
                done_s: 0.0,
            },
            response.body,
        ),
        None => {
            *conn = None;
            failed
        }
    }
}

fn connect(addr: SocketAddr) -> Option<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .ok()?;
    stream.set_nodelay(true).ok()?;
    let reader = BufReader::new(stream.try_clone().ok()?);
    Some((stream, reader))
}

#[cfg(test)]
mod tests {
    use std::io::{BufRead, Write};
    use std::net::TcpListener;

    use super::*;
    use crate::stats;

    #[test]
    fn refused_requests_fail_and_miss_every_percentile() {
        // Bind then drop a listener: its port now refuses connections.
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let bodies = ["{}".to_owned()];
        let run = run(addr, &bodies, 1, Duration::from_millis(50), 1);
        assert!(!run.samples.is_empty());
        assert!(run
            .samples
            .iter()
            .all(|s| !s.ok() && s.latency.is_infinite()));
        let latencies: Vec<f64> = run.samples.iter().map(|s| s.latency).collect();
        if let Some(p50) = stats::percentile(&latencies, 0.5) {
            assert!(p50.is_infinite());
        }
    }

    #[test]
    fn non_200_counts_as_failed_with_infinite_latency() {
        // A server that answers every request with 503 and keeps the
        // connection open.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut parser = http::RequestParser::new();
            let mut answered = 0;
            while answered < 3 {
                let buf = reader.fill_buf().unwrap().to_vec();
                if buf.is_empty() {
                    break;
                }
                reader.consume(buf.len());
                parser.feed(&buf);
                while let Ok(Some(_)) = parser.try_next() {
                    let reply = http::encode_response(503, "application/json", "{}", true);
                    writer.write_all(&reply).unwrap();
                    answered += 1;
                }
            }
        });
        let bodies = ["{}".to_owned()];
        let samples: Vec<Sample> = (0..3)
            .map({
                let mut conn = None;
                move |_| request(addr, &mut conn, 0, &bodies[0]).0
            })
            .collect();
        server.join().unwrap();
        assert_eq!(samples.len(), 3);
        for s in &samples {
            assert_eq!(s.status, 503);
            assert!(!s.ok());
            assert!(s.latency.is_infinite());
        }
    }
}
