//! Seeded operation mixes: the SQL each op class sends, the interleaved
//! op order, and the schedule on which data lands under the dashboard.

use lazyetl_bench::fresh::FRESH_QUERIES;

/// A small seeded generator (SplitMix64); the same seed gives the same
/// sequence on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a named purpose, so that independent
    /// streams drawn from one seed do not correlate.
    pub fn new(seed: u64, purpose: &str) -> Rng {
        Rng(seed ^ fnv1a(purpose.as_bytes()))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffle `v` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// 64-bit FNV-1a hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Operation classes, named as their metrics are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Seconds-long AVG over one stream (Figure-1 Q1 shape).
    Window,
    /// Per-station MIN/MAX/AVG with a Utf8 GROUP BY (Figure-1 Q2 shape).
    Scan,
    /// `COUNT(*)` over `dataview` with a station/channel filter.
    Count,
    /// A browse of file and record metadata only.
    Meta,
    /// Raw `sample_time, sample_value` over minutes of one stream.
    Export,
    /// The maintainable dashboard queries.
    Poll,
    /// The first query after a landing, whatever its class.
    Refresh,
}

impl Class {
    /// Metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            Class::Window => "window",
            Class::Scan => "scan",
            Class::Count => "count",
            Class::Meta => "meta",
            Class::Export => "export",
            Class::Poll => "poll",
            Class::Refresh => "refresh",
        }
    }
}

/// One stream of the generated repositories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stream {
    /// Network code.
    pub network: &'static str,
    /// Station code.
    pub station: &'static str,
    /// Channel code.
    pub channel: &'static str,
}

const CHANNELS: [&str; 2] = ["BHZ", "BHE"];

/// Streams of a station list, every station with both channels.
pub fn streams(stations: &[(&'static str, &'static str)]) -> Vec<Stream> {
    stations
        .iter()
        .flat_map(|&(network, station)| {
            CHANNELS.iter().map(move |&channel| Stream {
                network,
                station,
                channel,
            })
        })
        .collect()
}

/// Stations of the `small` repository.
pub const SMALL_STATIONS: [(&str, &str); 5] = [
    ("NL", "HGN"),
    ("NL", "WIT"),
    ("NL", "OPLO"),
    ("NL", "WTSB"),
    ("KO", "ISK"),
];

/// Render `2010-01-12T22:MM:SS.mmm` for an offset in milliseconds from
/// 22:00, the start of every generated stream.
fn ts(offset_ms: u64) -> String {
    let s = offset_ms / 1000;
    format!(
        "2010-01-12T{:02}:{:02}:{:02}.{:03}",
        22 + s / 3600,
        (s / 60) % 60,
        s % 60,
        offset_ms % 1000
    )
}

/// Figure-1 Q1 shape: a two-second AVG over one stream, starting
/// `start_s` seconds after 22:00.
pub fn window_sql(s: &Stream, start_s: u64) -> String {
    format!(
        "SELECT AVG(D.sample_value) FROM mseed.dataview \
         WHERE F.station = '{}' AND F.channel = '{}' \
         AND R.start_time > '2010-01-12T00:00:00.000' AND R.start_time < '2010-01-12T23:59:59.999' \
         AND D.sample_time > '{}' AND D.sample_time < '{}'",
        s.station,
        s.channel,
        ts(start_s * 1000),
        ts(start_s * 1000 + 2000)
    )
}

/// Figure-1 Q2 shape over one channel, optionally within one network.
pub fn scan_sql(channel: &str, network: Option<&str>) -> String {
    let net = network.map_or(String::new(), |n| format!(" AND F.network = '{n}'"));
    format!(
        "SELECT F.station, MIN(D.sample_value), MAX(D.sample_value), AVG(D.sample_value) \
         FROM mseed.dataview WHERE F.channel = '{channel}'{net} GROUP BY F.station"
    )
}

/// A pure `COUNT(*)` over one stream.
pub fn count_sql(s: &Stream) -> String {
    format!(
        "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = '{}' AND F.channel = '{}'",
        s.station, s.channel
    )
}

/// A browse of F and R only: per-stream record counts and time spans.
pub fn meta_sql(network: &str, with_samples: bool) -> String {
    let extra = if with_samples {
        ", SUM(R.num_samples)"
    } else {
        ", MIN(R.start_time), MAX(R.end_time)"
    };
    format!(
        "SELECT F.station, F.channel, COUNT(*){extra} FROM mseed.files F \
         JOIN mseed.records R ON F.file_id = R.file_id \
         WHERE F.network = '{network}' GROUP BY F.station, F.channel"
    )
}

/// Raw samples of one stream over `minutes` minutes starting `start_s`
/// seconds after 22:00.
pub fn export_sql(s: &Stream, start_s: u64, minutes: u64) -> String {
    format!(
        "SELECT D.sample_time, D.sample_value FROM mseed.dataview \
         WHERE F.station = '{}' AND F.channel = '{}' \
         AND D.sample_time >= '{}' AND D.sample_time < '{}'",
        s.station,
        s.channel,
        ts(start_s * 1000),
        ts((start_s + minutes * 60) * 1000)
    )
}

/// Window starts (seconds after 22:00) a workload draws from.
pub const WINDOW_STARTS: [u64; 8] = [15, 317, 622, 905, 1233, 1518, 1811, 2116];
/// Export starts (seconds after 22:00) a workload draws from.
pub const EXPORT_STARTS: [u64; 4] = [40, 610, 1260, 1800];
/// Minutes in one export.
pub const EXPORT_MINUTES: u64 = 2;

/// A planned operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// Its class.
    pub class: Class,
    /// The statement it sends.
    pub sql: String,
    /// Index of the stream it targets, if it targets one.
    pub stream: Option<usize>,
}

/// Classes repeated in shuffled blocks: each block holds the counts
/// given, so shares are exact and every class recurs across the run.
#[derive(Debug, Clone)]
pub struct Mix {
    block: Vec<Class>,
    rng: Rng,
    pos: usize,
    order: Vec<Class>,
}

impl Mix {
    /// A mix from `(class, count per block)` pairs.
    pub fn new(seed: u64, counts: &[(Class, usize)]) -> Mix {
        let block: Vec<Class> = counts
            .iter()
            .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
            .collect();
        Mix {
            order: block.clone(),
            pos: block.len(),
            block,
            rng: Rng::new(seed, "mix"),
        }
    }

    /// The next class.
    pub fn next_class(&mut self) -> Class {
        if self.pos == self.order.len() {
            self.order.clone_from(&self.block);
            self.rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        self.pos += 1;
        self.order[self.pos - 1]
    }

    /// Each class's share of the mix.
    pub fn shares(&self) -> Vec<(Class, f64)> {
        let mut out: Vec<(Class, f64)> = Vec::new();
        for &c in &self.block {
            match out.iter_mut().find(|(k, _)| *k == c) {
                Some((_, s)) => *s += 1.0,
                None => out.push((c, 1.0)),
            }
        }
        let n = self.block.len() as f64;
        out.iter_mut().for_each(|(_, s)| *s /= n);
        out
    }
}

/// The interactive session of `explore_warm`.
pub struct ExploreOps {
    mix: Mix,
    rng: Rng,
    streams: Vec<Stream>,
}

/// Class counts per block of `explore_warm`: one op of each class. The
/// session has no recorded trace to weight the classes by, so none is
/// favoured.
pub const EXPLORE_MIX: [(Class, usize); 5] = [
    (Class::Window, 1),
    (Class::Scan, 1),
    (Class::Count, 1),
    (Class::Meta, 1),
    (Class::Export, 1),
];

impl ExploreOps {
    /// The session for `seed`.
    pub fn new(seed: u64) -> ExploreOps {
        ExploreOps {
            mix: Mix::new(seed, &EXPLORE_MIX),
            rng: Rng::new(seed, "explore"),
            streams: streams(&SMALL_STATIONS),
        }
    }

    /// The mix's class shares.
    pub fn shares(&self) -> Vec<(Class, f64)> {
        self.mix.shares()
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        let class = self.mix.next_class();
        let si = self.rng.below(self.streams.len());
        let s = self.streams[si];
        let r = &mut self.rng;
        let sql = match class {
            Class::Window => window_sql(&s, WINDOW_STARTS[r.below(WINDOW_STARTS.len())]),
            Class::Scan => scan_sql(s.channel, [None, Some("NL"), Some("KO")][r.below(3)]),
            Class::Count => count_sql(&s),
            Class::Meta => meta_sql(["NL", "KO"][r.below(2)], r.below(2) == 0),
            Class::Export => export_sql(
                &s,
                EXPORT_STARTS[r.below(EXPORT_STARTS.len())],
                EXPORT_MINUTES,
            ),
            other => unreachable!("explore_warm has no {other:?} ops"),
        };
        Op {
            class,
            sql,
            stream: Some(si),
        }
    }
}

/// The dashboard rounds of `served_ingest`.
pub struct ServedOps {
    rng: Rng,
    think: Rng,
    panels: Vec<Op>,
}

/// Longest pause, in microseconds, the dashboard client takes before a
/// request.
pub const MAX_THINK_US: u64 = 1000;

/// Minutes in one `served_ingest` export: long enough to stream several
/// result batches.
pub const SERVED_EXPORT_MINUTES: u64 = 5;

impl ServedOps {
    /// The dashboard for `seed`: the maintainable queries plus one scan,
    /// count, meta, window and export panel on a seeded stream. A
    /// dashboard re-polls the same panels, so the statements stay fixed.
    pub fn new(seed: u64) -> ServedOps {
        let mut r = Rng::new(seed, "served");
        let streams = streams(&SMALL_STATIONS);
        let s = streams[r.below(streams.len())];
        let op = |class, sql: String| Op {
            class,
            sql,
            stream: None,
        };
        let mut panels: Vec<Op> = FRESH_QUERIES
            .iter()
            .map(|q| op(Class::Poll, q.to_string()))
            .collect();
        panels.push(op(Class::Scan, scan_sql(s.channel, Some("NL"))));
        panels.push(op(Class::Count, count_sql(&s)));
        panels.push(op(Class::Meta, meta_sql(s.network, r.below(2) == 0)));
        panels.push(op(
            Class::Window,
            window_sql(&s, WINDOW_STARTS[r.below(WINDOW_STARTS.len())]),
        ));
        panels.push(op(
            Class::Export,
            export_sql(
                &s,
                EXPORT_STARTS[r.below(EXPORT_STARTS.len())],
                SERVED_EXPORT_MINUTES,
            ),
        ));
        ServedOps {
            rng: r,
            think: Rng::new(seed, "think"),
            panels,
        }
    }

    /// One poll round: every panel once, in seeded order.
    pub fn round(&mut self) -> Vec<Op> {
        let mut ops = self.panels.clone();
        self.rng.shuffle(&mut ops);
        ops
    }

    /// The client's pause before its next request: uniform below
    /// [`MAX_THINK_US`]. The server polls an idle connection on a fixed
    /// tick; without the pause a request arrived at a point of that tick
    /// set by how long the client spent on the previous answer, and one
    /// statement's median moved by a whole tick from seed to seed.
    pub fn think_time(&mut self) -> std::time::Duration {
        std::time::Duration::from_micros(self.think.below(MAX_THINK_US as usize) as u64)
    }
}

/// Seconds one dashboard round stands for: the repository poll period the
/// README serves its live tail with (`lazyetl-serve --refresh-ms 500`).
pub const ROUND_SECS: f64 = 0.5;
/// Seconds of waveform one generated file covers (`file_duration_secs`).
pub const FILE_SECS: f64 = 600.0;
/// Records per file of `small`: 280 records in 40 files.
pub const RECORDS_PER_FILE: u64 = 7;
/// Whole seconds of waveform one landing carries: one record's span,
/// `FILE_SECS / RECORDS_PER_FILE` rounded.
pub const LANDING_SECS: u32 = 86;

/// One landing: after round `round`, stream `stream` gains one record's
/// span of waveform, in a new file or appended to its newest file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Landing {
    /// Round after which it lands.
    pub round: u64,
    /// Index of the stream it lands on.
    pub stream: usize,
    /// Whether it starts a new file (otherwise it appends).
    pub new_file: bool,
    /// Seed of the landed waveform.
    pub seed: u64,
}

/// When data lands under the dashboard, as a live archive receives it:
/// every stream gains one record every `FILE_SECS / RECORDS_PER_FILE`
/// seconds and starts a new file at every `RECORDS_PER_FILE`-th record.
/// The seed sets each stream's phase and its place in the file cycle;
/// time is counted in rounds of `ROUND_SECS`, never read from a clock.
/// Over the ten streams of `small` a landing follows about every 17
/// rounds, one in seven of them a new file.
pub struct Landings {
    rng: Rng,
    /// Per stream: seconds of its first arrival, its place in the file
    /// cycle, and the arrivals it has had.
    streams: Vec<(f64, u64, u64)>,
}

impl Landings {
    /// The schedule for `seed` over `n` streams.
    pub fn new(seed: u64, n: usize) -> Landings {
        let mut rng = Rng::new(seed, "landings");
        let period = FILE_SECS / RECORDS_PER_FILE as f64;
        let streams = (0..n)
            .map(|_| {
                let phase = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * period;
                (phase, rng.below(RECORDS_PER_FILE as usize) as u64, 0)
            })
            .collect();
        Landings { rng, streams }
    }

    /// The next landing in time order (ties go to the lower stream).
    pub fn next_landing(&mut self) -> Landing {
        let period = FILE_SECS / RECORDS_PER_FILE as f64;
        let at = |&(phase, _, j): &(f64, u64, u64)| phase + j as f64 * period;
        let stream = (0..self.streams.len())
            .min_by(|&a, &b| at(&self.streams[a]).total_cmp(&at(&self.streams[b])))
            .expect("at least one stream");
        let t = at(&self.streams[stream]);
        let (_, cycle, j) = &mut self.streams[stream];
        let new_file = (*cycle + *j) % RECORDS_PER_FILE == 0;
        *j += 1;
        Landing {
            round: (t / ROUND_SECS) as u64,
            stream,
            new_file,
            seed: self.rng.next_u64(),
        }
    }
}

/// Share of each class in a `served_ingest` round.
pub fn served_shares() -> Vec<(Class, f64)> {
    let n = FRESH_QUERIES.len() as f64 + 5.0;
    let mut out = vec![(Class::Poll, FRESH_QUERIES.len() as f64 / n)];
    for c in [
        Class::Scan,
        Class::Count,
        Class::Meta,
        Class::Window,
        Class::Export,
    ] {
        out.push((c, 1.0 / n));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops() {
        let a: Vec<String> = {
            let mut o = ExploreOps::new(7);
            (0..50).map(|_| o.next_op().sql).collect()
        };
        let mut o = ExploreOps::new(7);
        let b: Vec<String> = (0..50).map(|_| o.next_op().sql).collect();
        assert_eq!(a, b);
        let mut o = ExploreOps::new(8);
        let c: Vec<String> = (0..50).map(|_| o.next_op().sql).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn landings_follow_the_archive_cadence() {
        let mut l = Landings::new(5, 10);
        let all: Vec<Landing> = (0..700).map(|_| l.next_landing()).collect();
        assert!(all.windows(2).all(|w| w[0].round <= w[1].round));
        // 700 landings over ten streams: 70 each, ten of them new files.
        for s in 0..10 {
            let mine: Vec<&Landing> = all.iter().filter(|x| x.stream == s).collect();
            assert_eq!(mine.len(), 70);
            assert_eq!(mine.iter().filter(|x| x.new_file).count(), 10);
        }
        // 70 arrivals per stream span 69 record periods of 600/7 s.
        let rounds = all[699].round - all[0].round;
        let want = 69.0 * FILE_SECS / RECORDS_PER_FILE as f64 / ROUND_SECS;
        assert!(
            (rounds as f64 - want).abs() < want * 0.02,
            "{rounds} vs {want}"
        );
        let mut again = Landings::new(5, 10);
        assert!(all.iter().all(|x| *x == again.next_landing()));
    }

    #[test]
    fn blocks_hold_exact_shares() {
        let counts = [(Class::Window, 3), (Class::Scan, 1), (Class::Meta, 1)];
        let mut m = Mix::new(1, &counts);
        let classes: Vec<Class> = (0..40).map(|_| m.next_class()).collect();
        for (c, n) in counts {
            assert_eq!(classes.iter().filter(|&&k| k == c).count(), 8 * n);
        }
        let total: f64 = m.shares().iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn timestamps_render_past_the_hour() {
        assert_eq!(ts(0), "2010-01-12T22:00:00.000");
        assert_eq!(ts(3_723_500), "2010-01-12T23:02:03.500");
    }
}
