// The benchmark is a module of its own so that its build never touches the
// root build files; it imports the repo's internal packages through the
// replace below (Go checks "internal" by import path, and this module's path
// is rooted at combining/).
module combining/bench

go 1.23

require combining v0.0.0

replace combining => ../
