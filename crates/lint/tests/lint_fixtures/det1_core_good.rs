//! Known-good DET-1 twin for a daemon core: `now` and the frames come in
//! as arguments, the frames to send go out as the return value, and the
//! shell owns the clock, the socket and the terminal.

pub struct Core {
    frames: u64,
    last_burst_at: u64,
}

impl Core {
    pub fn step(&mut self, now: u64, frames: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        self.frames += frames.len() as u64;
        self.last_burst_at = now;
        frames
    }
}
