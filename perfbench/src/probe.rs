//! The host reference: a fixed mock of the serving path, driven between
//! sub-windows, that runs none of the program's code.
//!
//! The benchmark runs on a few vCPUs of a shared host. When neighbours
//! load the physical cores, instructions, system calls and cross-CPU
//! wake-ups all cost more, and the program's closed-loop timings move
//! by a third from one minute to the next without any steal showing in
//! `/proc/stat`. The reference measures that host speed with work shaped
//! like the program's: a thread per keep-alive loopback connection reads
//! a request, hands it to a pool of four workers over a channel, and
//! writes the worker's reply, while one client thread keeps one request
//! in flight on each of the same number of connections as the driver.
//! Timings that depend on host speed are reported scaled by
//! `NOMINAL_NS / reference`, and raw, so a change in the program moves
//! them and a change in the host mostly does not.

use crate::stats;
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Bytes of each request.
const REQUEST: usize = 512;
/// Bytes of each reply.
const REPLY: usize = 1024;
/// Hashing passes over half a request, on each of the two server
/// threads a request visits: fixed user-space work per request.
const HASH_PASSES: usize = 8;
/// Workers in the mock's pool, as in `ServiceConfig::defaults()`.
const POOL: usize = 4;
/// Requests per timed batch, spread over the connections.
const BATCH: usize = 50;
/// Batches per reading; the reading is their median.
const BATCHES: usize = 8;
/// The reference's ns per request on a nominal host: the unit the
/// scaled metrics are put in. It is a fixed constant, near what an
/// unloaded 2-vCPU host reads, not a measurement.
pub const NOMINAL_NS: f64 = 40_000.0;

type Job = (Vec<u8>, Sender<Vec<u8>>);

/// The mock server and its client connections.
pub struct Reference {
    clients: Vec<TcpStream>,
    threads: Vec<JoinHandle<io::Result<()>>>,
    request: Vec<u8>,
    replies: Vec<Vec<u8>>,
}

impl Reference {
    /// Start the mock server and connect `conns` clients to it.
    ///
    /// # Errors
    ///
    /// Binding, connecting or spawning failed.
    pub fn start(conns: usize) -> io::Result<Reference> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let (to_pool, pool_rx) = mpsc::channel::<Job>();
        let pool_rx = Arc::new(Mutex::new(pool_rx));
        let mut reference = Reference {
            clients: Vec::with_capacity(conns),
            threads: Vec::with_capacity(POOL + conns),
            request: (0..REQUEST).map(|i| i as u8).collect(),
            replies: vec![vec![0; REPLY]; conns.max(1)],
        };
        for _ in 0..POOL {
            let jobs = Arc::clone(&pool_rx);
            reference.threads.push(spawn(move || loop {
                let job = jobs.lock().expect("reference pool lock").recv();
                let Ok((mut buf, reply_to)) = job else {
                    return Ok(());
                };
                let h = hash(&buf[REQUEST / 2..]);
                buf[8..16].copy_from_slice(&h.to_le_bytes());
                buf.resize(REPLY, 0);
                if reply_to.send(buf).is_err() {
                    return Ok(());
                }
            })?);
        }
        for _ in 0..conns.max(1) {
            let client = TcpStream::connect(addr)?;
            client.set_nodelay(true)?;
            reference.clients.push(client);
            let (mut peer, _) = listener.accept()?;
            peer.set_nodelay(true)?;
            let to_pool = to_pool.clone();
            reference.threads.push(spawn(move || {
                let (reply_to, replies) = mpsc::channel();
                loop {
                    let mut buf = vec![0u8; REQUEST];
                    match peer.read_exact(&mut buf) {
                        Ok(()) => {}
                        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
                        Err(e) => return Err(e),
                    }
                    let h = hash(&buf[..REQUEST / 2]);
                    buf[..8].copy_from_slice(&h.to_le_bytes());
                    if to_pool.send((buf, reply_to.clone())).is_err() {
                        return Ok(());
                    }
                    let Ok(reply) = replies.recv() else {
                        return Ok(());
                    };
                    peer.write_all(&reply)?;
                }
            })?);
        }
        reference.read()?;
        Ok(reference)
    }

    /// One reading: `BATCHES` batches of `BATCH` requests, one in
    /// flight per connection; ns per request of the median batch, so
    /// one descheduling does not move it.
    ///
    /// # Errors
    ///
    /// A loopback connection failed.
    pub fn read(&mut self) -> io::Result<f64> {
        let rounds = (BATCH / self.clients.len()).max(1);
        let mut batches = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let t = Instant::now();
            for client in &self.clients {
                (&*client).write_all(&self.request)?;
            }
            for round in 0..rounds {
                for (client, reply) in self.clients.iter().zip(&mut self.replies) {
                    (&*client).read_exact(reply)?;
                    let h = hash(&reply[..REQUEST / 2]);
                    self.request[16..24].copy_from_slice(&h.to_le_bytes());
                    if round + 1 < rounds {
                        (&*client).write_all(&self.request)?;
                    }
                }
            }
            let requests = rounds * self.clients.len();
            batches.push(t.elapsed().as_nanos() as f64 / requests as f64);
        }
        Ok(stats::median(&batches).expect("at least one batch"))
    }
}

impl Drop for Reference {
    /// Close the connections and wait for every mock thread: the
    /// connection threads see end of stream, and the pool sees every
    /// sender gone.
    fn drop(&mut self) {
        for client in &self.clients {
            let _ = client.shutdown(Shutdown::Both);
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

fn spawn(
    body: impl FnOnce() -> io::Result<()> + Send + 'static,
) -> io::Result<JoinHandle<io::Result<()>>> {
    std::thread::Builder::new()
        .name("perfbench-reference".into())
        .spawn(body)
}

/// FNV-1a over `bytes`, `HASH_PASSES` times.
fn hash(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..HASH_PASSES {
        for &b in black_box(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_reads_a_positive_time_and_stops_its_threads() {
        let mut reference = Reference::start(2).expect("mock server");
        let ns = reference.read().expect("a reading");
        assert!(ns.is_finite() && ns > 0.0, "{ns}");
        // Dropping joins every mock thread; a hang here fails the test
        // by timeout.
        drop(reference);
    }
}
