//! The chunk download / playback-buffer mechanics shared by the RL
//! environment and the heuristic-baseline evaluations. Mirrors the Pensieve
//! simulator: sequential chunk downloads over a bandwidth trace, a playback
//! buffer capped at 60 s (the client sleeps when it is full), rebuffering
//! whenever a download outlasts the buffer.

use crate::trace::{NetworkTrace, NO_SEGMENT};
use crate::video::VideoModel;
use std::sync::Arc;

/// Playback buffer cap in seconds.
pub const BUFFER_CAP_S: f64 = 60.0;

/// Outcome of downloading one chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkDownload {
    pub quality: usize,
    pub size_bytes: f64,
    pub download_time_s: f64,
    /// Stall time incurred while this chunk downloaded.
    pub rebuffer_s: f64,
    /// Client sleep after the download because the buffer was full.
    pub sleep_s: f64,
    /// Buffer level after the chunk was appended (and any sleep).
    pub buffer_after_s: f64,
}

/// A single client session streaming `video` over `trace`.
#[derive(Debug, Clone)]
pub struct StreamingSession {
    video: Arc<VideoModel>,
    trace: Arc<NetworkTrace>,
    /// Absolute position on the trace (download clock).
    time_s: f64,
    buffer_s: f64,
    next_chunk: usize,
    /// The trace segment the last download ended in: where the next
    /// download's cursor starts walking. A hint only, never an input to
    /// the result.
    seg: usize,
}

impl StreamingSession {
    /// Start a session at `trace_offset_s` into the bandwidth trace.
    pub fn new(video: Arc<VideoModel>, trace: Arc<NetworkTrace>, trace_offset_s: f64) -> Self {
        StreamingSession {
            video,
            trace,
            time_s: trace_offset_s,
            buffer_s: 0.0,
            next_chunk: 0,
            seg: NO_SEGMENT,
        }
    }

    /// Rewind to the state [`StreamingSession::new`] builds at
    /// `trace_offset_s`, keeping the shared video and trace.
    pub fn restart(&mut self, trace_offset_s: f64) {
        self.time_s = trace_offset_s;
        self.buffer_s = 0.0;
        self.next_chunk = 0;
        self.seg = NO_SEGMENT;
    }

    pub fn video(&self) -> &VideoModel {
        &self.video
    }

    pub fn trace(&self) -> &NetworkTrace {
        &self.trace
    }

    /// Index of the chunk the next download will fetch.
    pub fn next_chunk(&self) -> usize {
        self.next_chunk
    }

    /// Chunks still to download.
    pub fn chunks_remaining(&self) -> usize {
        self.video.n_chunks() - self.next_chunk
    }

    pub fn finished(&self) -> bool {
        self.next_chunk >= self.video.n_chunks()
    }

    pub fn buffer_s(&self) -> f64 {
        self.buffer_s
    }

    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Download the next chunk at `quality`, advancing the session clock,
    /// draining/refilling the buffer, and accounting rebuffer and sleep.
    ///
    /// # Panics
    /// Panics if the session is finished or `quality` is out of range.
    pub fn download_next(&mut self, quality: usize) -> ChunkDownload {
        assert!(
            !self.finished(),
            "download_next called on a finished session"
        );
        assert!(quality < self.video.n_qualities(), "quality out of range");

        let size = self.video.chunk_size_bytes(self.next_chunk, quality);
        let dt = self
            .trace
            .download_time_from(&mut self.seg, self.time_s, size);
        self.time_s += dt;

        // Buffer drains while downloading; a stall occurs if it runs dry.
        let rebuffer = (dt - self.buffer_s).max(0.0);
        self.buffer_s = (self.buffer_s - dt).max(0.0) + self.video.chunk_duration_s();

        // If the buffer exceeds the cap, the client pauses requests while
        // playback drains it back to the cap.
        let sleep = (self.buffer_s - BUFFER_CAP_S).max(0.0);
        if sleep > 0.0 {
            self.time_s += sleep;
            self.buffer_s = BUFFER_CAP_S;
        }

        self.next_chunk += 1;
        ChunkDownload {
            quality,
            size_bytes: size,
            download_time_s: dt,
            rebuffer_s: rebuffer,
            sleep_s: sleep,
            buffer_after_s: self.buffer_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NetworkTrace;
    use crate::video::VideoModel;
    use proptest::prelude::*;

    fn session(kbps: f64) -> StreamingSession {
        StreamingSession::new(
            Arc::new(VideoModel::standard(48, 7)),
            Arc::new(NetworkTrace::fixed(kbps, 1000.0)),
            0.0,
        )
    }

    #[test]
    fn first_chunk_always_stalls() {
        // Empty buffer: the whole first download is a stall.
        let mut s = session(3000.0);
        let d = s.download_next(0);
        assert!(d.rebuffer_s > 0.0);
        assert!((d.rebuffer_s - d.download_time_s).abs() < 1e-12);
        assert!((d.buffer_after_s - 4.0).abs() < 1e-12);
    }

    #[test]
    fn fast_link_builds_buffer_no_more_stalls() {
        let mut s = session(6000.0);
        s.download_next(0);
        let mut total_rebuf = 0.0;
        while !s.finished() {
            total_rebuf += s.download_next(2).rebuffer_s;
        }
        assert_eq!(total_rebuf, 0.0, "1200kbps on a 6Mbps link must not stall");
        assert!(s.buffer_s() > 4.0);
    }

    #[test]
    fn oversized_bitrate_on_slow_link_stalls() {
        let mut s = session(500.0);
        s.download_next(0);
        let mut stalls = 0;
        for _ in 0..10 {
            if s.download_next(5).rebuffer_s > 0.0 {
                stalls += 1;
            }
        }
        assert!(
            stalls >= 9,
            "4300kbps on a 500kbps link must stall, got {stalls}/10"
        );
    }

    #[test]
    fn buffer_cap_triggers_sleep() {
        let mut s = session(6000.0);
        let mut slept = false;
        while !s.finished() {
            let d = s.download_next(0);
            assert!(d.buffer_after_s <= BUFFER_CAP_S + 1e-9);
            slept |= d.sleep_s > 0.0;
        }
        assert!(slept, "tiny chunks on a fast link must hit the buffer cap");
    }

    #[test]
    fn chunk_accounting() {
        let mut s = session(3000.0);
        assert_eq!(s.chunks_remaining(), 48);
        s.download_next(1);
        assert_eq!(s.next_chunk(), 1);
        assert_eq!(s.chunks_remaining(), 47);
        while !s.finished() {
            s.download_next(1);
        }
        assert_eq!(s.chunks_remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "finished session")]
    fn download_after_finish_panics() {
        let mut s = session(3000.0);
        while !s.finished() {
            s.download_next(0);
        }
        s.download_next(0);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = session(3000.0);
        a.download_next(2);
        let mut b = a.clone();
        let da = a.download_next(3);
        let db = b.download_next(3);
        assert_eq!(da, db, "clones must evolve identically from the same state");
        b.download_next(0);
        assert_eq!(a.next_chunk(), 2);
        assert_eq!(
            b.next_chunk(),
            3,
            "advancing the clone must not move the original"
        );
    }

    proptest! {
        /// Invariants under arbitrary action sequences on arbitrary fixed
        /// links: buffer in [0, cap], time monotone, rebuffer/sleep >= 0.
        #[test]
        fn prop_session_invariants(
            kbps in 300.0_f64..6000.0,
            actions in proptest::collection::vec(0usize..6, 48)
        ) {
            let mut s = session(kbps);
            let mut last_time = 0.0;
            for &a in &actions {
                if s.finished() { break; }
                let d = s.download_next(a);
                prop_assert!(d.rebuffer_s >= 0.0);
                prop_assert!(d.sleep_s >= 0.0);
                prop_assert!(d.download_time_s > 0.0);
                prop_assert!((0.0..=BUFFER_CAP_S + 1e-9).contains(&d.buffer_after_s));
                prop_assert!(s.time_s() > last_time);
                last_time = s.time_s();
            }
        }

        /// Download time equals bytes/rate on a fixed link.
        #[test]
        fn prop_fixed_link_download_time(kbps in 300.0_f64..6000.0, q in 0usize..6) {
            let mut s = session(kbps);
            let d = s.download_next(q);
            let expected = d.size_bytes / (kbps * 1000.0 / 8.0);
            prop_assert!((d.download_time_s - expected).abs() < 1e-6);
        }
    }
}
