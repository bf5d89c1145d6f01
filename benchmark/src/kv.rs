//! `kv_mixed`: the remote-client use. `edgecache_server::serve` runs
//! in-process on a loopback port over a `LocalPageStore` on tmpfs; one TCP
//! connection sends batches of up to 64 requests and waits for all replies
//! (batch-synchronous pipelining), so `server` — parser, object layer,
//! connection thread — does most of the work and `core` sees only one- and
//! two-page reads and puts.
//!
//! Why this shape: at depth 1 a loopback round trip measures cross-CPU
//! wake-ups and is bimodal (8 us or 48 us per request from one window to
//! the next); at depth 64 three identical runs agreed within 2 %. One
//! client thread plus the server's one connection thread is the two CPUs
//! of the sandbox. Sets ride beside gets on the same connection, so an
//! object-layer change that favours one shows in the other.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use edgecache_common::clock::system_clock;
use edgecache_common::ByteSize;
use edgecache_core::config::CacheConfig;
use edgecache_core::manager::CacheManager;
use edgecache_metrics::{
    assert_conserved, server_laws, RegistrySnapshot, SnapshotDiff, SpanId, Tracer,
};
use edgecache_pagestore::{LocalPageStore, LocalStoreConfig, PageStore};
use edgecache_server::protocol::{encode_value, Parsed};
use edgecache_server::{
    serve, Command, ObjectStore, ParserLimits, RequestParser, ServerConfig, ServerHandle,
};
use edgecache_workload::kv::fill_value;
use edgecache_workload::{KeyMix, KeyMixConfig, ZipfSampler};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::embed::{probe_index_touch, probe_pagestore};
use crate::harness::{metric, Counted, Metric, Step, TracedRun, Workload};
use crate::spans;

const KIB: usize = 1 << 10;
/// Few keys and a short list on purpose: with 10 000 keys and 512 batches
/// (100 MiB touched per pass) ten consecutive runs drifted from 34 000 to
/// 46 000 requests/s as the host backed more of the memory; with these
/// sizes they stayed within 42 000-49 000. The per-request path through the
/// server does not depend on the size of the key set.
const KEYS: usize = 2_000;
const NAMESPACES: usize = 4;
const ZIPF: f64 = 1.0;
const SET_RATIO: f64 = 0.2;
const PAGE: u64 = 16 * KIB as u64;
/// Holds every key (1 800 x 1 KiB + 200 x 32 KiB = 8 MiB) with room for the
/// old version a `set` keeps until the new one is visible.
const CAPACITY: u64 = 64 << 20;
const BATCH: usize = 64;
/// A batch also ends once its requests plus the replies they will draw
/// reach this many bytes: with less than that in flight in both directions
/// together, a client that writes the whole batch before it reads cannot
/// deadlock against the server's writes at default socket buffer sizes.
const BATCH_BYTES: usize = 256 * KIB;
const BATCHES: usize = 128;
const SMALL: usize = KIB;
const LARGE: usize = 32 * KIB;

/// 1 KiB for nine ranks in ten, 32 KiB (two pages) for the tenth.
fn value_len(rank: usize) -> usize {
    if rank % 10 == 9 {
        LARGE
    } else {
        SMALL
    }
}

#[derive(Clone, Copy)]
struct Request {
    rank: u32,
    set: bool,
}

struct Batch {
    wire: Vec<u8>,
    requests: Vec<Request>,
}

/// The one client connection and its reply decoder.
struct Client {
    stream: TcpStream,
    rx: Vec<u8>,
    /// `rx[pos..filled]` is received and not yet consumed.
    pos: usize,
    filled: usize,
}

impl Client {
    fn connect(server: &ServerHandle) -> Self {
        let stream = TcpStream::connect(server.local_addr()).expect("loopback connect");
        stream.set_nodelay(true).expect("nodelay");
        // A reply that never comes fails the batch instead of hanging the run.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        Self {
            stream,
            rx: vec![0; 4 * BATCH_BYTES],
            pos: 0,
            filled: 0,
        }
    }

    /// Makes at least `n` unconsumed bytes available.
    fn need(&mut self, n: usize) -> std::io::Result<()> {
        while self.filled - self.pos < n {
            if self.pos > 0 && self.pos + n > self.rx.len() {
                self.rx.copy_within(self.pos..self.filled, 0);
                self.filled -= self.pos;
                self.pos = 0;
            }
            if self.filled == self.rx.len() {
                self.rx.resize(self.rx.len() * 2, 0);
            }
            let got = self.stream.read(&mut self.rx[self.filled..])?;
            if got == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.filled += got;
        }
        Ok(())
    }

    /// Consumes one `\r\n`-terminated line and returns it without the
    /// terminator, as a range of `rx`.
    fn line(&mut self) -> std::io::Result<std::ops::Range<usize>> {
        let mut scanned = 0;
        loop {
            let window = &self.rx[self.pos + scanned..self.filled];
            if let Some(at) = window.iter().position(|&b| b == b'\n') {
                let start = self.pos;
                let end = self.pos + scanned + at;
                self.pos = end + 1;
                return Ok(start..end.saturating_sub(1).max(start));
            }
            scanned = self.filled - self.pos;
            self.need(scanned + 1)?;
        }
    }

    /// Consumes `n` bytes, returning them as a range of `rx`.
    fn take(&mut self, n: usize) -> std::io::Result<std::ops::Range<usize>> {
        self.need(n)?;
        let start = self.pos;
        self.pos += n;
        Ok(start..start + n)
    }

    /// Sends one batch, then reads and checks exactly one reply per request,
    /// in order: `STORED` for a set; for a get either `END` (a miss) or the
    /// key, length and every byte `fill_value` gives that key.
    fn round_trip(
        &mut self,
        data: &Dataset,
        batch: &Batch,
        tracer: &Tracer,
        parent: SpanId,
    ) -> std::io::Result<Replies> {
        let write = tracer.child(parent, "client.write");
        self.stream.write_all(&batch.wire)?;
        write.finish();
        let _read = tracer.child(parent, "client.read_verify");
        let mut out = Replies::default();
        for r in &batch.requests {
            let line = self.line()?;
            if r.set {
                out.wrong += u32::from(&self.rx[line] != b"STORED");
                continue;
            }
            out.gets += 1;
            if &self.rx[line.clone()] == b"END" {
                continue;
            }
            let want = &data.values[r.rank as usize];
            let header_ok = self.rx[line] == *data.headers[r.rank as usize];
            let body = self.take(want.len() + 2)?;
            let body_ok = &self.rx[body.start..body.end - 2] == want.as_slice();
            let end = self.line()?;
            if header_ok && body_ok && &self.rx[end] == b"END" {
                out.hits += 1;
            } else {
                out.wrong += 1;
            }
        }
        Ok(out)
    }
}

/// Keys by popularity rank, the value every `set` of a key writes, and the
/// `VALUE` line a hit on it must start with.
struct Dataset {
    keys: Vec<String>,
    values: Vec<Bytes>,
    headers: Vec<Vec<u8>>,
}

impl Dataset {
    fn new() -> Self {
        let names = KeyMix::new(KeyMixConfig {
            keys: KEYS,
            namespaces: NAMESPACES,
            ..Default::default()
        });
        let keys: Vec<String> = names.all_keys().collect();
        let values: Vec<Bytes> = keys
            .iter()
            .enumerate()
            .map(|(rank, key)| Bytes::from(fill_value(key, value_len(rank))))
            .collect();
        let headers = keys
            .iter()
            .zip(&values)
            .map(|(key, value)| format!("VALUE {key} 0 {}", value.len()).into_bytes())
            .collect();
        Self {
            keys,
            values,
            headers,
        }
    }

    fn command(&self, r: Request) -> Command {
        let key = self.keys[r.rank as usize].clone();
        if r.set {
            Command::Set {
                key,
                flags: 0,
                exptime: 0,
                noreply: false,
                data: self.values[r.rank as usize].clone(),
            }
        } else {
            Command::Get {
                keys: vec![key],
                with_cas: false,
            }
        }
    }

    /// Cuts a request stream into batches and encodes each as a client
    /// would send it.
    fn encode_batches(&self, mut stream: impl Iterator<Item = Request>) -> Vec<Batch> {
        let mut batches = Vec::new();
        loop {
            let mut batch = Batch {
                wire: Vec::new(),
                requests: Vec::with_capacity(BATCH),
            };
            let mut reply_bytes = 0;
            while batch.requests.len() < BATCH && batch.wire.len() + reply_bytes < BATCH_BYTES {
                let Some(r) = stream.next() else { break };
                self.command(r).encode(&mut batch.wire);
                reply_bytes += if r.set {
                    8
                } else {
                    value_len(r.rank as usize) + 64
                };
                batch.requests.push(r);
            }
            if batch.requests.is_empty() {
                return batches;
            }
            // Doubling left up to as much slack as payload, by the luck of
            // the seed; `rss_mb` should not move with it.
            batch.wire.shrink_to_fit();
            batches.push(batch);
        }
    }
}

/// What the replies to one batch amounted to.
#[derive(Default)]
struct Replies {
    gets: u64,
    hits: u64,
    wrong: u32,
}

pub struct KvMixed {
    // Declared before the cache so the connection closes and the server
    // (stopped by dropping its handle) stops first.
    client: Client,
    _server: ServerHandle,
    cache: Arc<CacheManager>,
    store: Arc<LocalPageStore>,
    data: Dataset,
    batches: Vec<Batch>,
    gets: u64,
    hits: u64,
    after_setup: RegistrySnapshot,
    counted: Counted,
}

impl KvMixed {
    pub fn setup(seed: u64, dir: &Path) -> Self {
        let store = Arc::new(
            LocalPageStore::open(
                dir.join("kv"),
                LocalStoreConfig {
                    page_size: PAGE,
                    ..Default::default()
                },
            )
            .expect("tmpfs directory opens"),
        );
        let cache = Arc::new(
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(PAGE)))
                .with_store(Arc::clone(&store) as Arc<dyn PageStore>, CAPACITY)
                .build()
                .expect("cache builds"),
        );
        let server = serve(
            Arc::clone(&cache),
            system_clock(),
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                ..Default::default()
            },
        )
        .expect("server binds a loopback port");
        let mut client = Client::connect(&server);
        let data = Dataset::new();

        // Store every key, through the wire like any other client would.
        let load = (0..KEYS as u32).map(|rank| Request { rank, set: true });
        for batch in data.encode_batches(load) {
            let replies = client.round_trip(&data, &batch, &Tracer::disabled(), SpanId::NONE);
            assert!(
                matches!(replies, Ok(Replies { wrong: 0, .. })),
                "loading the key set failed"
            );
        }
        let mut zipf = ZipfSampler::new(KEYS, ZIPF, seed ^ 0x6b76);
        let mut rng = StdRng::seed_from_u64(seed);
        let stream = std::iter::repeat_with(|| Request {
            rank: zipf.sample() as u32,
            set: rng.random_bool(SET_RATIO),
        });
        // Enough requests for `BATCHES` full batches; byte-capped batches
        // make the list a little longer.
        let batches = data.encode_batches(stream.take(BATCHES * BATCH));
        Self {
            client,
            _server: server,
            after_setup: cache.metrics().snapshot(),
            cache,
            store,
            data,
            batches,
            gets: 0,
            hits: 0,
            counted: Counted::default(),
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counted.counter(name)
    }

    /// Median per-request round trip, in microseconds, of batches holding
    /// only gets or only sets of the keys the step list uses.
    fn probe_batches(&mut self, set: bool) -> f64 {
        const ROUNDS: usize = 200;
        let requests = self
            .batches
            .iter()
            .flat_map(|b| b.requests.iter())
            .map(|r| Request { rank: r.rank, set })
            .take(ROUNDS * BATCH);
        let batches = self.data.encode_batches(requests);
        let mut per_request = Vec::with_capacity(batches.len());
        for batch in &batches {
            let start = Instant::now();
            let replies =
                self.client
                    .round_trip(&self.data, batch, &Tracer::disabled(), SpanId::NONE);
            if replies.is_ok() {
                per_request.push(start.elapsed().as_secs_f64() * 1e6 / batch.requests.len() as f64);
            }
        }
        crate::harness::median(&per_request)
    }
}

impl Workload for KvMixed {
    fn steps(&self) -> usize {
        self.batches.len()
    }

    fn step(&mut self, i: usize, tracer: &Tracer, parent: SpanId) -> Step {
        let batch = &self.batches[i % self.batches.len()];
        let ops = batch.requests.len() as u32;
        let failed = match self.client.round_trip(&self.data, batch, tracer, parent) {
            Ok(replies) => {
                self.gets += replies.gets;
                self.hits += replies.hits;
                replies.wrong
            }
            Err(_) => ops,
        };
        Step { ops, failed }
    }

    fn hit_counters(&self) -> (u64, u64) {
        (self.hits, self.gets)
    }

    fn counted_begin(&mut self) {
        self.counted.begin(self.cache.metrics());
    }

    fn counted_end(&mut self) {
        self.counted.end(self.cache.metrics());
    }

    fn verify(&mut self) -> Result<(), String> {
        let diff = SnapshotDiff::between(&self.after_setup, &self.cache.metrics().snapshot());
        assert_conserved(&diff, &server_laws())?;
        self.cache.index().check_consistency()
    }

    fn layer_metrics(&mut self, traced: &TracedRun) -> Result<Vec<Metric>, String> {
        let ops = traced.ops as f64;
        // Time per request as the client saw it: its batch's round trip
        // divided by the batch's size, averaged over the traced pass.
        let request_us = traced
            .records
            .iter()
            .filter(|r| r.name == "op")
            .map(spans::nanos)
            .sum::<u64>() as f64
            / 1e3
            / ops;

        // Parser: the exact byte stream the client sent.
        let commands: usize = self.batches.iter().map(|b| b.requests.len()).sum();
        let mut parser = RequestParser::new(ParserLimits::default());
        let start = Instant::now();
        for batch in &self.batches {
            parser.feed(&batch.wire);
            while let Some(parsed) = parser.next() {
                assert!(matches!(std::hint::black_box(parsed), Parsed::Cmd(_)));
            }
        }
        let parse_ns = start.elapsed().as_nanos() as f64 / commands as f64;

        // Reply encoding, per value reply of the mix.
        let gets: Vec<u32> = self
            .batches
            .iter()
            .flat_map(|b| b.requests.iter())
            .filter(|r| !r.set)
            .map(|r| r.rank)
            .collect();
        let mut out = Vec::with_capacity(4 * BATCH_BYTES);
        let start = Instant::now();
        for &rank in &gets {
            if out.len() > 2 * BATCH_BYTES {
                out.clear();
            }
            encode_value(
                &mut out,
                &self.data.keys[rank as usize],
                0,
                &self.data.values[rank as usize],
                None,
            );
        }
        std::hint::black_box(&out);
        let encode_ns = start.elapsed().as_nanos() as f64 / gets.len() as f64;

        // Object layer direct, by value size class, on keys of its own.
        let objects = ObjectStore::new(Arc::clone(&self.cache), system_clock());
        let mut object_us = [[0.0f64; 2]; 2]; // [set|get][1k|32k]
        for (class, len) in [SMALL, LARGE].into_iter().enumerate() {
            const PROBE_KEYS: usize = 512;
            let keys: Vec<String> = (0..PROBE_KEYS)
                .map(|i| format!("probe.p{class}:k{i:08x}"))
                .collect();
            let value = fill_value("probe", len);
            let start = Instant::now();
            for key in &keys {
                std::hint::black_box(objects.set(key, 0, 0, &value));
            }
            object_us[0][class] = start.elapsed().as_secs_f64() * 1e6 / PROBE_KEYS as f64;
            let start = Instant::now();
            for key in &keys {
                std::hint::black_box(objects.get(key));
            }
            object_us[1][class] = start.elapsed().as_secs_f64() * 1e6 / PROBE_KEYS as f64;
            for key in &keys {
                objects.delete(key);
            }
        }

        // The mix's share of each (op, size class), to weigh the object
        // rung of the ladder.
        let mut share = [[0.0f64; 2]; 2];
        for r in self.batches.iter().flat_map(|b| b.requests.iter()) {
            share[usize::from(!r.set)][usize::from(value_len(r.rank as usize) == LARGE)] +=
                1.0 / commands as f64;
        }
        let object_mix_us: f64 = (0..2)
            .flat_map(|op| (0..2).map(move |class| (op, class)))
            .map(|(op, class)| share[op][class] * object_us[op][class])
            .sum();
        let get_share = share[1][0] + share[1][1];
        let wire_us = request_us - parse_ns / 1e3 - object_mix_us - get_share * encode_ns / 1e3;

        let mut metrics = vec![
            metric("server.parse_ns", parse_ns, "ns"),
            metric("server.object_set_us_1k", object_us[0][0], "us"),
            metric("server.object_set_us_32k", object_us[0][1], "us"),
            metric("server.object_get_us_1k", object_us[1][0], "us"),
            metric("server.object_get_us_32k", object_us[1][1], "us"),
            metric("server.encode_ns", encode_ns, "ns"),
            metric("server.wire_us", wire_us, "us"),
            metric("server.request_us", request_us, "us"),
            metric(
                "server.bytes_out_per_op",
                self.counter("server.bytes_out") as f64 / ops,
                "B",
            ),
            metric("server.get_p50_us", self.probe_batches(false), "us"),
            metric("server.set_p50_us", self.probe_batches(true), "us"),
            metric(
                "core.page_hit_ratio",
                self.counter("hits") as f64
                    / (self.counter("hits") + self.counter("misses")).max(1) as f64,
                "ratio",
            ),
            metric(
                "core.hits_slow_path",
                self.counter("hits.slow_path") as f64,
                "count",
            ),
            metric(
                "core.bytes_copied_per_op",
                self.counter("bytes_copied") as f64 / ops,
                "B",
            ),
        ];
        metrics.push(probe_index_touch(&self.cache));
        metrics.extend(probe_pagestore(
            &self.store,
            &self.cache.index().pages_of_dir(0),
            PAGE,
        ));
        // The ladder index touch -> store get -> object get -> + parse and
        // encode -> + wire sums to the request time by construction (wire is
        // the remainder); what can go wrong is rungs measured in isolation
        // adding up to more than the whole.
        if wire_us < 0.0 {
            return Err(format!(
                "parse + object + encode exceed the measured {request_us:.2} us per request"
            ));
        }
        Ok(metrics)
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("keys", KEYS as u64),
            (
                "value_bytes_total",
                self.data.values.iter().map(|v| v.len() as u64).sum(),
            ),
            ("capacity_bytes", CAPACITY),
            ("page_bytes", PAGE),
            ("batches_in_list", self.batches.len() as u64),
            (
                "requests_in_list",
                self.batches.iter().map(|b| b.requests.len() as u64).sum(),
            ),
        ]
    }
}
